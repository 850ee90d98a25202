package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rmb/internal/core"
	"rmb/internal/service"
)

func smallSpec() service.JobSpec {
	return service.JobSpec{
		Name:     "small",
		Config:   core.Config{Nodes: 12, Buses: 3, Seed: 1},
		Workload: service.WorkloadSpec{Rate: 0.01, PayloadLen: 4, Measure: 500, Seed: 1},
	}
}

// v1Checkpoint is the JSON form every earlier rmbd drained to disk.
const v1Checkpoint = `{"version":1,"id":"j1","spec":{"config":{"Nodes":12,"Buses":3},"workload":{"rate":0.01,"measure":500}},` +
	`"driver":{"RNG":1,"Submitted":0},"core":{"magic":"rmb-checkpoint","version":1,"sum":1,"state":{}}}` + "\n"

// TestResumeFromDirSetsAsideUnsupported: an old-format checkpoint must not
// stop the daemon from starting. It is renamed out of the way with its
// bytes intact, and the current-format checkpoints beside it still resume.
func TestResumeFromDirSetsAsideUnsupported(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j1.ckpt"), []byte(v1Checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpointFile(dir, &service.Checkpoint{ID: "j2", Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	m, err := service.NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	n, err := resumeFromDir(m, dir)
	if err != nil {
		t.Fatalf("resumeFromDir refused to start: %v", err)
	}
	if n != 1 {
		t.Fatalf("resumed %d checkpoints, want 1", n)
	}
	if _, err := m.Get("j2"); err != nil {
		t.Fatalf("current-format checkpoint not resumed: %v", err)
	}
	kept, err := os.ReadFile(filepath.Join(dir, "j1.ckpt.unsupported"))
	if err != nil {
		t.Fatalf("old checkpoint not set aside: %v", err)
	}
	if string(kept) != v1Checkpoint {
		t.Fatal("old checkpoint's bytes changed when it was set aside")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("checkpoint files left to resume again: %v", left)
	}
}

// TestResumeFromDirSetsAsideV2: testdata/v2-drained.ckpt and
// testdata/v3-drained.ckpt are real job checkpoints earlier rmbd builds
// drained mid-run. Version 2's core carried the whole message history;
// version 3's spec and core Config section still named the retired
// Workers field. Start-up must set each aside, bytes intact, and carry on
// with the current-format file beside it.
func TestResumeFromDirSetsAsideV2(t *testing.T) {
	for _, name := range []string{"v2-drained.ckpt", "v3-drained.ckpt"} {
		t.Run(name, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := service.DecodeCheckpoint(old); !errors.Is(err, service.ErrUnsupportedVersion) {
				t.Fatalf("DecodeCheckpoint(%s) = %v, want ErrUnsupportedVersion", name, err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "j1.ckpt"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := writeCheckpointFile(dir, &service.Checkpoint{ID: "j2", Spec: smallSpec()}); err != nil {
				t.Fatal(err)
			}
			m, err := service.NewManager(1, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			n, err := resumeFromDir(m, dir)
			if err != nil {
				t.Fatalf("resumeFromDir refused to start: %v", err)
			}
			if n != 1 {
				t.Fatalf("resumed %d checkpoints, want 1", n)
			}
			kept, err := os.ReadFile(filepath.Join(dir, "j1.ckpt.unsupported"))
			if err != nil {
				t.Fatalf("old checkpoint not set aside: %v", err)
			}
			if !bytes.Equal(kept, old) {
				t.Fatal("old checkpoint's bytes changed when it was set aside")
			}
			if _, err := m.Get("j2"); err != nil {
				t.Fatalf("current-format checkpoint not resumed: %v", err)
			}
		})
	}
}

// TestResumeFromDirAbortsOnCorruption: damage other than an old format
// version still stops the start, and the file stays where it was.
func TestResumeFromDirAbortsOnCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := writeCheckpointFile(dir, &service.Checkpoint{ID: "j3", Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "j3.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x20 // inside the JSON header: the checksum no longer matches
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := service.NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := resumeFromDir(m, dir); err == nil {
		t.Fatal("a corrupt checkpoint did not abort the start")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corrupt checkpoint moved: %v", err)
	}
	if _, err := os.Stat(path + ".unsupported"); err == nil {
		t.Fatal("a corrupt checkpoint was set aside as an old format")
	}
}

// TestWriteCheckpointFile: the file holds exactly EncodeCheckpoint's bytes
// and no temp file is left behind.
func TestWriteCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	ck := &service.Checkpoint{ID: "j4", Spec: smallSpec()}
	if err := writeCheckpointFile(dir, ck); err != nil {
		t.Fatal(err)
	}
	want, err := service.EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "j4.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes, EncodeCheckpoint gives %d", len(got), len(want))
	}
	if _, err := os.Stat(filepath.Join(dir, "j4.ckpt.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}
