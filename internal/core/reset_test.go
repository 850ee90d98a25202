package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rmb/internal/sim"
)

// TestResetMatchesFresh is the tentpole correctness proof for in-place
// network reuse: for every seed in the checkpoint zoo (both sync modes,
// all three schedulers, chaos fault plans, varied protocol knobs), a
// network that previously ran a *different* dirty workload mid-flight
// and was then Reset must be indistinguishable from NewNetwork(cfg) —
// first in its immediate full-state checkpoint bytes, then across a full
// replayed run with a checkpoint/restore interleaving at the halfway
// tick: recorded event stream, stats, and final checkpoint bytes all
// bit-identical to the fresh oracle.
func TestResetMatchesFresh(t *testing.T) {
	const half = sim.Tick(400)
	for seed := uint64(0); seed < 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := checkpointZooConfig(seed)

			// Fresh oracle: uninterrupted run from a brand-new network.
			fresh, err := NewNetwork(cfg)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			recF := &captureRecorder{}
			fresh.SetRecorder(recF)
			wrngF := sim.NewRNG(seed*0x9e3779b9 + 7)
			driveBernoulliTicks(t, fresh, wrngF, 0, 2*half)
			finalF, err := fresh.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("oracle final checkpoint: %v", err)
			}
			statsF := fresh.Stats()
			fresh.Close()

			// Dirty network: a different zoo config (different seed, fault
			// plan, scheduler, knobs — same 12x3 shape), abandoned mid-run
			// with circuits in flight, queues populated and timers pending,
			// then re-armed in place.
			dirty, err := NewNetwork(checkpointZooConfig(seed + 13))
			if err != nil {
				t.Fatalf("NewNetwork(dirty): %v", err)
			}
			driveBernoulliTicks(t, dirty, sim.NewRNG(seed+99), 0, 300)
			if err := dirty.Reset(cfg); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			n := dirty

			// Construction identity: the reset network's immediate
			// checkpoint must match a brand-new network's byte for byte —
			// the strongest single assertion, covering every serialized
			// field (RNG state, idDelay draws, timer sequence numbers,
			// fault plans) at once.
			base, err := NewNetwork(cfg)
			if err != nil {
				t.Fatalf("NewNetwork(base): %v", err)
			}
			wantCkpt, err := base.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("base checkpoint: %v", err)
			}
			base.Close()
			gotCkpt, err := n.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("reset checkpoint: %v", err)
			}
			if !bytes.Equal(wantCkpt, gotCkpt) {
				t.Fatalf("reset network's construction checkpoint differs from fresh:\n%s", firstDiff(wantCkpt, gotCkpt))
			}

			// Replay the oracle's workload on the reset network, crossing a
			// checkpoint/restore boundary at the halfway tick so reuse and
			// serialization compose.
			recR1 := &captureRecorder{}
			n.SetRecorder(recR1)
			wrngR := sim.NewRNG(seed*0x9e3779b9 + 7)
			driveBernoulliTicks(t, n, wrngR, 0, half)
			mid, err := n.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
			n.Close()
			n2, err := UnmarshalCheckpoint(mid)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			recR2 := &captureRecorder{}
			n2.SetRecorder(recR2)
			driveBernoulliTicks(t, n2, wrngR, half, 2*half)
			finalR, err := n2.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("reset-path final checkpoint: %v", err)
			}
			statsR := n2.Stats()
			n2.Close()

			gotEvents := append(append([]string{}, recR1.events...), recR2.events...)
			if !reflect.DeepEqual(gotEvents, recF.events) {
				for i := range gotEvents {
					if i >= len(recF.events) || gotEvents[i] != recF.events[i] {
						t.Fatalf("event %d diverged on the reset network:\n got:    %s\n oracle: %s", i, gotEvents[i], eventOr(recF.events, i))
					}
				}
				t.Fatalf("event stream diverged (lengths %d vs %d)", len(gotEvents), len(recF.events))
			}
			if !reflect.DeepEqual(statsR, statsF) {
				t.Fatalf("stats diverged:\n got:    %+v\n oracle: %+v", statsR, statsF)
			}
			if !bytes.Equal(finalF, finalR) {
				t.Fatalf("final state diverged on the reset network:\n%s", firstDiff(finalF, finalR))
			}
		})
	}
}

// TestRestoreCheckpointInPlace: RestoreCheckpoint into a network that
// ran a different dirty workload of the same shape gives exactly the
// network UnmarshalCheckpoint builds — the same bytes on re-marshal, then
// the same events, stats and final state over the rest of the run — and
// keeps the record storage the dirty run grew.
func TestRestoreCheckpointInPlace(t *testing.T) {
	const half = sim.Tick(400)
	for seed := uint64(0); seed < 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src, err := NewNetwork(checkpointZooConfig(seed))
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			driveBernoulliTicks(t, src, sim.NewRNG(seed*0x9e3779b9+7), 0, half)
			mid, err := src.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
			src.Close()

			// Twice as many ticks as the checkpoint holds, so the dirty
			// network's record storage has room for all of its records.
			n, err := NewNetwork(checkpointZooConfig(seed + 13))
			if err != nil {
				t.Fatalf("NewNetwork(dirty): %v", err)
			}
			defer n.Close()
			driveBernoulliTicks(t, n, sim.NewRNG(seed+99), 0, 2*half)
			backing := &n.recSlot[0]
			if err := n.RestoreCheckpoint(mid); err != nil {
				t.Fatalf("RestoreCheckpoint: %v", err)
			}
			if &n.recSlot[0] != backing {
				t.Fatal("RestoreCheckpoint replaced the network's record storage")
			}
			again, err := n.MarshalCheckpoint()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(again, mid) {
				t.Fatalf("network restored in place re-marshals differently:\n%s", firstDiff(mid, again))
			}

			fresh, err := UnmarshalCheckpoint(mid)
			if err != nil {
				t.Fatalf("UnmarshalCheckpoint: %v", err)
			}
			defer fresh.Close()
			recN, recF := &captureRecorder{}, &captureRecorder{}
			n.SetRecorder(recN)
			fresh.SetRecorder(recF)
			driveBernoulliTicks(t, n, sim.NewRNG(seed+5), half, 2*half)
			driveBernoulliTicks(t, fresh, sim.NewRNG(seed+5), half, 2*half)
			if !reflect.DeepEqual(recN.events, recF.events) {
				for i := range recN.events {
					if i >= len(recF.events) || recN.events[i] != recF.events[i] {
						t.Fatalf("event %d diverged on the network restored in place:\n got:    %s\n oracle: %s", i, recN.events[i], eventOr(recF.events, i))
					}
				}
				t.Fatalf("event stream diverged (lengths %d vs %d)", len(recN.events), len(recF.events))
			}
			if !reflect.DeepEqual(n.Stats(), fresh.Stats()) {
				t.Fatalf("stats diverged:\n got:    %+v\n oracle: %+v", n.Stats(), fresh.Stats())
			}
			finalN, err := n.MarshalCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			finalF, err := fresh.MarshalCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(finalN, finalF) {
				t.Fatalf("final state diverged on the network restored in place:\n%s", firstDiff(finalF, finalN))
			}
		})
	}
}

// TestRestoreCheckpointRecycles: restoring into one network again and
// again draws the live buses from the ones Reset parked, so a pooled
// network that serves many resumes does not accumulate bus structs.
func TestRestoreCheckpointRecycles(t *testing.T) {
	src, err := NewNetwork(checkpointZooConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	driveBernoulliTicks(t, src, sim.NewRNG(7), 0, 400)
	mid, err := src.MarshalCheckpoint()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(checkpointZooConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	owned := 0
	for i := 0; i < 4; i++ {
		if err := n.RestoreCheckpoint(mid); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if len(n.active) == 0 {
			t.Fatal("the checkpoint holds no live buses")
		}
		got := len(n.active) + len(n.vbFree)
		if i > 0 && got != owned {
			t.Fatalf("restore %d: the network holds %d buses, %d after the previous restore", i, got, owned)
		}
		owned = got
	}
}

// TestRestoreCheckpointRefuses: RestoreCheckpoint refuses a checkpoint
// of another shape, and bad bytes with the errors UnmarshalCheckpoint
// gives.
func TestRestoreCheckpointRefuses(t *testing.T) {
	other, err := NewNetwork(checkpointZooConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := other.MarshalCheckpoint()
	other.Close()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(Config{Nodes: 8, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.RestoreCheckpoint(data); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("checkpoint of a 12x3 ring into an 8x2 network: got %v, want a shape mismatch", err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 1
	if err := n.RestoreCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip: got %v, want a checksum error", err)
	}
	if err := n.RestoreCheckpoint([]byte(`{"version":1}`)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("v1 JSON: got %v, want ErrUnsupportedVersion", err)
	}
}

// TestResetRepeated re-arms one network many times in a row, alternating
// configs, and requires every incarnation to match its fresh twin — the
// pool's steady-state usage pattern, where arenas and freelists carry
// recycled structs from run to run.
func TestResetRepeated(t *testing.T) {
	n, err := NewNetwork(checkpointZooConfig(0))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer n.Close()
	for round := uint64(0); round < 8; round++ {
		cfg := checkpointZooConfig(round)
		if err := n.Reset(cfg); err != nil {
			t.Fatalf("round %d: Reset: %v", round, err)
		}
		fresh, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("round %d: NewNetwork: %v", round, err)
		}
		recR, recF := &captureRecorder{}, &captureRecorder{}
		n.SetRecorder(recR)
		fresh.SetRecorder(recF)
		driveBernoulliTicks(t, n, sim.NewRNG(round*31+5), 0, 250)
		driveBernoulliTicks(t, fresh, sim.NewRNG(round*31+5), 0, 250)
		ckR, err := n.MarshalCheckpoint()
		if err != nil {
			t.Fatalf("round %d: reset checkpoint: %v", round, err)
		}
		ckF, err := fresh.MarshalCheckpoint()
		if err != nil {
			t.Fatalf("round %d: fresh checkpoint: %v", round, err)
		}
		fresh.Close()
		if !reflect.DeepEqual(recR.events, recF.events) {
			t.Fatalf("round %d: event streams diverged (%d vs %d events)", round, len(recR.events), len(recF.events))
		}
		if !bytes.Equal(ckR, ckF) {
			t.Fatalf("round %d: checkpoints diverged:\n%s", round, firstDiff(ckR, ckF))
		}
	}
}

// TestResetShapeMismatch pins the geometry contract: Reset re-arms
// fixed-shape storage, so a config with a different ring size or bus
// count must be refused (the caller builds a new network instead).
func TestResetShapeMismatch(t *testing.T) {
	n, err := NewNetwork(Config{Nodes: 8, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer n.Close()
	if err := n.Reset(Config{Nodes: 10, Buses: 2, Seed: 1}); err == nil {
		t.Fatal("Reset accepted a node-count change")
	}
	if err := n.Reset(Config{Nodes: 8, Buses: 3, Seed: 1}); err == nil {
		t.Fatal("Reset accepted a bus-count change")
	}
	if err := n.Reset(Config{Nodes: 1, Buses: 0}); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	// The failed attempts must not have disturbed the network: it still
	// runs and matches a fresh twin.
	if err := n.Reset(Config{Nodes: 8, Buses: 2, Seed: 42}); err != nil {
		t.Fatalf("Reset after refused attempts: %v", err)
	}
	fresh, err := NewNetwork(Config{Nodes: 8, Buses: 2, Seed: 42})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer fresh.Close()
	a, err := n.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("network diverged from fresh after refused Reset attempts:\n%s", firstDiff(a, b))
	}
}

// TestResetSchedulerCross re-arms across scheduler modes in every
// direction (event -> sharded -> naive -> event), proving the sharded
// worker pool tears down and rebuilds cleanly and the naive flag tracks
// the config.
func TestResetSchedulerCross(t *testing.T) {
	modes := []SchedulerMode{
		SchedulerEventDriven, SchedulerSharded, SchedulerNaive, SchedulerSharded, SchedulerEventDriven,
	}
	n, err := NewNetwork(Config{Nodes: 12, Buses: 3, Seed: 3, Scheduler: SchedulerEventDriven})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer n.Close()
	for i, m := range modes {
		cfg := Config{Nodes: 12, Buses: 3, Seed: uint64(i)*7 + 1, Scheduler: m, Workers: 3}
		if err := n.Reset(cfg); err != nil {
			t.Fatalf("Reset to %v: %v", m, err)
		}
		fresh, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("NewNetwork(%v): %v", m, err)
		}
		recR, recF := &captureRecorder{}, &captureRecorder{}
		n.SetRecorder(recR)
		fresh.SetRecorder(recF)
		driveBernoulliTicks(t, n, sim.NewRNG(uint64(i)+17), 0, 200)
		driveBernoulliTicks(t, fresh, sim.NewRNG(uint64(i)+17), 0, 200)
		fresh.Close()
		if !reflect.DeepEqual(recR.events, recF.events) {
			t.Fatalf("scheduler %v: event streams diverged (%d vs %d events)", m, len(recR.events), len(recF.events))
		}
	}
}
