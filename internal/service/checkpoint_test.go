package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rmb/internal/core"
	"rmb/internal/loadgen"
	"rmb/internal/sim"
)

// jobCheckpointAt runs spec in process up to tick and returns the bytes a
// worker freezing the job there would produce.
func jobCheckpointAt(t *testing.T, id string, spec JobSpec, tick sim.Tick) []byte {
	t.Helper()
	n, err := core.NewNetwork(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	d, err := loadgen.NewDriver(n, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for n.Now() < tick {
		if more, err := d.Step(); err != nil || !more {
			t.Fatalf("run ended at tick %v before the freeze (err %v)", n.Now(), err)
		}
	}
	data, err := freezeJob(&Job{id: id, spec: spec}, d)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHTTPCheckpointCycle is the benchmark's checkpoint cycle over HTTP:
// submit, wait for tick 1000, checkpoint, cancel, post the checkpoint
// body back to /resume untouched (under the JSON content type a generic
// client sends), and require the resumed job to finish with the Stats of
// an uninterrupted run.
func TestHTTPCheckpointCycle(t *testing.T) {
	spec := JobSpec{
		Name:   "ckpt-cycle",
		Config: core.Config{Nodes: 256, Buses: 4, Seed: 5},
		Workload: WorkloadSpec{
			Pattern: "neighbour", Rate: 0.05, PayloadLen: 16, Measure: 4000, Drain: 4000, Seed: 5,
		},
	}
	bare, err := core.NewNetwork(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadgen.Run(bare, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()
	call := func(method, path string, body []byte, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d: %s", method, path, resp.StatusCode, out)
		}
		return out
	}
	status := func(body []byte) Status {
		t.Helper()
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	await := func(id string, until func(Status) bool) Status {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if st := status(call("GET", "/api/v1/jobs/"+id, nil, http.StatusOK)); until(st) {
				return st
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s: condition not reached in 30s", id)
		return Status{}
	}

	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := status(call("POST", "/api/v1/jobs", specBody, http.StatusAccepted))
	st = await(st.ID, func(s Status) bool { return s.Tick >= 1000 || s.State.Terminal() })
	if st.State != StateRunning {
		t.Fatalf("job %s left running before the freeze: %s", st.ID, st.State)
	}
	ck := call("POST", "/api/v1/jobs/"+st.ID+"/checkpoint", nil, http.StatusOK)
	call("POST", "/api/v1/jobs/"+st.ID+"/cancel", nil, http.StatusAccepted)
	await(st.ID, func(s Status) bool { return s.State == StateCanceled })

	before := m.PoolStats()
	rst := status(call("POST", "/api/v1/resume", ck, http.StatusAccepted))
	if fin := await(rst.ID, func(s Status) bool { return s.State.Terminal() }); fin.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", fin.State, fin.Error)
	}
	// The canceled job parked its network; the resume restores into it.
	if after := m.PoolStats(); after.Reuses != before.Reuses+1 || after.ColdBuilds != before.ColdBuilds {
		t.Fatalf("resume did not restore into the parked network: pool %+v before, %+v after", before, after)
	}
	var got loadgen.Result
	if err := json.Unmarshal(call("GET", "/api/v1/jobs/"+rst.ID+"/result", nil, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("resumed run diverged from the uninterrupted one:\n got:  %+v\n want: %+v", got.Stats, want.Stats)
	}
}

// TestResumeReleasesCheckpoint: once a resumed job's network is
// restored, the job stops referencing the checkpoint, so the job table
// does not keep every resumed checkpoint alive for the process lifetime.
func TestResumeReleasesCheckpoint(t *testing.T) {
	ck, err := DecodeCheckpoint(jobCheckpointAt(t, "j1", chaosSpec(9), 300))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Resume(*ck)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	// The worker wrote resume before its terminal transition, which
	// waitTerminal observed under the job lock.
	if j.resume != nil {
		t.Fatal("finished resumed job still holds its checkpoint")
	}
}

// TestDecodeCheckpointRejects covers the envelope's own rejection paths;
// the core bytes inside are checked by core's TestCheckpointCorruption.
func TestDecodeCheckpointRejects(t *testing.T) {
	data := jobCheckpointAt(t, "j1", chaosSpec(3), 200)
	with := func(i int, b byte) []byte {
		out := append([]byte(nil), data...)
		out[i] = b
		return out
	}
	hdrLen := int(binary.LittleEndian.Uint32(data[len(jobMagic)+1:]))
	spaced := append([]byte(nil), data[:jobHeaderPos]...)
	spaced = append(spaced, ' ')
	spaced = append(spaced, data[jobHeaderPos:]...)
	binary.LittleEndian.PutUint32(spaced[len(jobMagic)+1:], uint32(hdrLen+1))
	spaced = resumJob(spaced)

	cases := []struct {
		name        string
		data        []byte
		want        string
		unsupported bool
	}{
		{"empty", nil, "truncated header", false},
		{"bad magic", with(0, 'R'), "bad magic", false},
		{"core bytes", data[jobHeaderPos+hdrLen:], "bad magic", false},
		{"v1 json", []byte(`{"version":1,"id":"j1","spec":{},"driver":{},"core":{}}`), "version 1", true},
		{"future version", with(len(jobMagic), CheckpointVersion+1), fmt.Sprintf("version %d", CheckpointVersion+1), true},
		{"header cut", data[:jobHeaderPos+hdrLen-1], "exceeds", false},
		{"header bit flip", with(jobHeaderPos+2, data[jobHeaderPos+2]^0x20), "checksum", false},
		{"non-canonical header", spaced, "canonical", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCheckpoint(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
			if errors.Is(err, ErrUnsupportedVersion) != tc.unsupported {
				t.Fatalf("errors.Is(%q, ErrUnsupportedVersion) = %v, want %v", err, !tc.unsupported, tc.unsupported)
			}
		})
	}
}

// resumJob recomputes the header checksum of a (possibly tampered) job
// checkpoint whose header length still fits, so the damage reaches the
// header decoder.
func resumJob(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < jobHeaderPos || string(out[:len(jobMagic)]) != jobMagic {
		return out
	}
	n := uint64(binary.LittleEndian.Uint32(out[len(jobMagic)+1:]))
	if n <= uint64(len(out)-jobHeaderPos) {
		binary.LittleEndian.PutUint64(out[jobHeaderPos-8:], fnvSum(out[jobHeaderPos:jobHeaderPos+int(n)]))
	}
	return out
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the envelope decoder,
// both as given and with the header checksum recomputed. It must never
// panic, and any input it accepts must re-encode to exactly the same
// bytes. The committed seed corpus holds real job checkpoints (see
// TestCheckpointFuzzCorpus).
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resumJob(data)} {
			ck, err := DecodeCheckpoint(in)
			if err != nil {
				continue
			}
			out, err := EncodeCheckpoint(ck)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("accepted %d bytes but re-encoded %d", len(in), len(out))
			}
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus")

// TestCheckpointFuzzCorpus keeps FuzzDecodeCheckpoint's committed seed
// corpus made of real job checkpoints in the current format: every
// generated file must decode, and its core bytes restore. Run with
// -update to regenerate them after a format change. The v2- seeds are
// real job checkpoints of an older format, kept as inputs the decoder
// must refuse as unsupported.
func TestCheckpointFuzzCorpus(t *testing.T) {
	traced := smallSpec(4)
	traced.Trace, traced.Workload.Pattern = true, "neighbour"
	seeds := map[string]func() []byte{
		// Chaos faults pending and applied in the core bytes.
		"chaos-midrun":     func() []byte { return jobCheckpointAt(t, "j7", chaosSpec(7), 200) },
		"traced-neighbour": func() []byte { return jobCheckpointAt(t, "j2", traced, 150) },
		// Suspended before it started: no core bytes.
		"not-started": func() []byte {
			data, err := EncodeCheckpoint(&Checkpoint{ID: "j3", Spec: longSpec(3)})
			if err != nil {
				t.Fatal(err)
			}
			return data
		},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeCheckpoint")
	for name, gen := range seeds {
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", gen())), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the corpus)", err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", path, err)
		}
		ck, err := DecodeCheckpoint([]byte(data))
		if err == nil && len(ck.Core) > 0 {
			var n *core.Network
			if n, err = core.UnmarshalCheckpoint(ck.Core); err == nil {
				n.Close()
			}
		}
		if err != nil {
			t.Fatalf("%s no longer decodes (run with -update after a format change): %v", path, err)
		}
	}
	old, err := filepath.Glob(filepath.Join(dir, "v2-*"))
	if err != nil || len(old) == 0 {
		t.Fatalf("no v2 seed in %s: %v", dir, err)
	}
	for _, path := range old {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n"))
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", path, err)
		}
		if _, err := DecodeCheckpoint([]byte(data)); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("%s: got %v, want ErrUnsupportedVersion", path, err)
		}
	}
}
