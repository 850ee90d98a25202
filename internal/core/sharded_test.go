package core

import (
	"fmt"
	"testing"

	"rmb/internal/sim"
)

// TestShardedGeometry pins down initShard's resolution rules white-box:
// which (mode, N, workers) combinations engage the sharded stepper at
// all, and with how many arcs.
func TestShardedGeometry(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		arcs int // 0 = must fall back to the event path (n.sh == nil)
	}{
		{"P1-falls-back", Config{Nodes: 12, Buses: 3, Scheduler: SchedulerSharded, Workers: 1}, 0},
		{"N2-falls-back", Config{Nodes: 2, Buses: 2, Scheduler: SchedulerSharded, Workers: 4}, 0},
		{"async-falls-back", Config{Nodes: 12, Buses: 3, Mode: Async, Scheduler: SchedulerSharded, Workers: 4}, 0},
		{"P-clamped-to-N", Config{Nodes: 6, Buses: 2, Scheduler: SchedulerSharded, Workers: 64}, 6},
		{"smallest-ring", Config{Nodes: 3, Buses: 2, Scheduler: SchedulerSharded, Workers: 2}, 2},
		{"uneven-split", Config{Nodes: 10, Buses: 2, Scheduler: SchedulerSharded, Workers: 3}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNetwork(tc.cfg)
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			defer n.Close()
			if tc.arcs == 0 {
				if n.sh != nil {
					t.Fatalf("expected event-path fallback, got %d arcs", n.sh.arcs)
				}
				return
			}
			if n.sh == nil {
				t.Fatalf("expected %d arcs, got event-path fallback", tc.arcs)
			}
			if n.sh.arcs != tc.arcs {
				t.Fatalf("arcs = %d, want %d", n.sh.arcs, tc.arcs)
			}
			if got := len(n.sh.nodeBounds); got != tc.arcs+1 {
				t.Fatalf("len(nodeBounds) = %d, want %d", got, tc.arcs+1)
			}
			if n.sh.nodeBounds[0] != 0 || n.sh.nodeBounds[tc.arcs] != tc.cfg.Nodes {
				t.Fatalf("nodeBounds %v does not tile [0,%d)", n.sh.nodeBounds, tc.cfg.Nodes)
			}
		})
	}
}

// TestShardedDegenerateGeometries runs the full permutation workload on
// the partition shapes most likely to harbour boundary bugs — worker
// counts that exceed N, that do not divide N, the minimum shardable ring
// — and on the fallback shapes, which must be trace-identical to the
// event scheduler (fallback is invisible in results).
func TestShardedDegenerateGeometries(t *testing.T) {
	forceShardParallel(t)
	cases := []struct {
		name           string
		nodes, workers int
	}{
		{"P1", 12, 1},          // resolves below 2 arcs: event-path fallback
		{"P-over-N", 6, 64},    // clamped to one node per arc
		{"uneven", 10, 3},      // 4+3+3 split
		{"minimum-ring", 3, 2}, // smallest N the stepper accepts
		{"tiny-ring", 2, 4},    // below the minimum: fallback, no panic
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 4; seed++ {
				cfg := Config{Nodes: tc.nodes, Buses: 2, CompactionPeriod: 1 + int(seed%2)}
				cfg.Scheduler = SchedulerEventDriven
				want := runPermutationWorkload(t, cfg, seed)
				cfg.Scheduler = SchedulerSharded
				cfg.Workers = tc.workers
				got := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d", seed), got, want)
			}
		})
	}
}

// TestShardedCloseMidRunFallsBack proves Close is safe while traffic is
// in flight: the network reverts to the sequential stepper and finishes
// the run with results identical to an uninterrupted event-scheduler
// run. Close must also be idempotent.
func TestShardedCloseMidRunFallsBack(t *testing.T) {
	forceShardParallel(t)
	run := func(scheduler SchedulerMode, closeAfter int) schedulerRunResult {
		t.Helper()
		cfg := Config{Nodes: 12, Buses: 3, Seed: 11, Scheduler: scheduler, Workers: 3}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		rec := &captureRecorder{}
		n.SetRecorder(rec)
		hist := NewHistory(n)
		for src := 0; src < cfg.Nodes; src++ {
			if _, err := n.Send(NodeID(src), NodeID((src+5)%cfg.Nodes), []uint64{1, 2, 3}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		for i := 0; i < closeAfter; i++ {
			n.Step()
		}
		n.Close()
		n.Close() // idempotent
		drainErr := n.Drain(sim.Tick(200_000))
		return schedulerRunResult{
			now:       n.Now(),
			stats:     n.Stats(),
			records:   hist.Records(),
			delivered: hist.Delivered(),
			cycle:     n.GlobalCycle(),
			events:    rec.events,
			drainErr:  drainErr,
		}
	}
	want := run(SchedulerEventDriven, 0)
	for _, closeAfter := range []int{0, 1, 17, 50} {
		got := run(SchedulerSharded, closeAfter)
		compareRuns(t, fmt.Sprintf("close after %d ticks", closeAfter), got, want)
	}
}

// TestShardedInlineCutoff checks the dispatch gate itself: without the
// test override, a small workload stays on the inline path (identical
// kernels, no pool round-trip) and still matches the oracle.
func TestShardedInlineCutoff(t *testing.T) {
	if shardForceParallel {
		t.Fatal("shardForceParallel leaked from another test")
	}
	cfg := Config{Nodes: 12, Buses: 3}
	cfg.Scheduler = SchedulerEventDriven
	want := runPermutationWorkload(t, cfg, 5)
	cfg.Scheduler = SchedulerSharded
	cfg.Workers = 3
	got := runPermutationWorkload(t, cfg, 5)
	compareRuns(t, "inline cutoff", got, want)
}
