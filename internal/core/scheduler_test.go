package core

import (
	"fmt"
	"reflect"
	"testing"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

// captureRecorder records every protocol event in order, so two runs can
// be compared trace-for-trace (not just by their final aggregates).
type captureRecorder struct {
	events []string
}

func (r *captureRecorder) Move(m Move) {
	r.events = append(r.events, fmt.Sprintf("move %v vb%d hop%d inc%d %d->%d", m.At, m.VB, m.Hop, m.Node, m.From, m.To))
}

func (r *captureRecorder) VBEvent(at sim.Tick, vb *VirtualBus, event string) {
	r.events = append(r.events, fmt.Sprintf("vb %v vb%d m%d %s %s levels=%v", at, vb.ID, vb.Msg, vb.State, event, vb.Levels))
}

func (r *captureRecorder) CycleSwitch(at sim.Tick, inc NodeID, cycle int64) {
	r.events = append(r.events, fmt.Sprintf("cycle %v inc%d c%d", at, inc, cycle))
}

func (r *captureRecorder) Fault(at sim.Tick, ev FaultEvent) {
	r.events = append(r.events, fmt.Sprintf("fault %v %s", at, ev))
}

func (r *captureRecorder) Submit(at sim.Tick, rec MsgRecord) {
	r.events = append(r.events, fmt.Sprintf("submit %v m%d %d->%d len%d", at, rec.ID, rec.Src, rec.Dst, rec.PayloadLen))
}

func (r *captureRecorder) Requeue(at sim.Tick, msg flit.MessageID, attempt int, readyAt sim.Tick) {
	r.events = append(r.events, fmt.Sprintf("requeue %v m%d a%d ready %v", at, msg, attempt, readyAt))
}

// schedulerRunResult is everything externally observable about a run.
type schedulerRunResult struct {
	now       sim.Tick
	stats     Stats
	records   map[flit.MessageID]MsgRecord
	delivered []flit.Message
	cycle     int64
	events    []string
	drainErr  error
}

// runPermutationWorkload drives one network through a randomized
// workload: a permutation of unicasts staged over time, one multicast,
// and a drain. All randomness comes from the given seed.
func runPermutationWorkload(t *testing.T, cfg Config, seed uint64) schedulerRunResult {
	t.Helper()
	cfg.Seed = seed
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	rec := &captureRecorder{}
	n.SetRecorder(rec)
	hist := NewHistory(n)

	// A random permutation plus payload lengths drawn from the workload
	// RNG (distinct from the network's protocol RNG).
	wrng := sim.NewRNG(seed*0x9e3779b9 + 7)
	nodes := cfg.Nodes
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := wrng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for src, dst := range perm {
		if src == dst {
			dst = (dst + 1) % nodes
		}
		payload := make([]uint64, wrng.Intn(6))
		if _, err := n.Send(NodeID(src), NodeID(dst), payload); err != nil {
			t.Fatalf("Send: %v", err)
		}
		// Stagger submissions so insertion contention varies over time.
		for s := wrng.Intn(3); s > 0; s-- {
			n.Step()
		}
	}
	if nodes >= 4 {
		if _, err := n.SendMulticast(0, []NodeID{1, NodeID(nodes / 2), NodeID(nodes - 1)}, []uint64{1, 2}); err != nil {
			t.Fatalf("SendMulticast: %v", err)
		}
	}
	drainErr := n.Drain(sim.Tick(200_000))
	n.Close()

	res := schedulerRunResult{
		now:       n.Now(),
		stats:     n.Stats(),
		records:   hist.Records(),
		delivered: hist.Delivered(),
		cycle:     n.GlobalCycle(),
		events:    rec.events,
		drainErr:  drainErr,
	}
	return res
}

// forceShardParallel routes every sharded tick through the real worker
// pool for the duration of a test: the differential workloads are far
// below the work cutoff that normally gates cross-goroutine dispatch,
// and the point is to prove the pool path (not the inline fallback)
// trace-identical — under -race, with real barriers.
func forceShardParallel(t *testing.T) {
	t.Helper()
	prev := shardForceParallel
	shardForceParallel = true
	t.Cleanup(func() { shardForceParallel = prev })
}

// compareRuns requires two runs to be externally indistinguishable:
// identical final time, Stats, global cycle, per-message records,
// delivery order and recorded event stream.
func compareRuns(t *testing.T, label string, got, want schedulerRunResult) {
	t.Helper()
	if got.now != want.now {
		t.Fatalf("%s: final tick %v != oracle %v", label, got.now, want.now)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats diverged:\n got:    %+v\n oracle: %+v", label, got.stats, want.stats)
	}
	if got.cycle != want.cycle {
		t.Fatalf("%s: global cycle %d != oracle %d", label, got.cycle, want.cycle)
	}
	if (got.drainErr == nil) != (want.drainErr == nil) {
		t.Fatalf("%s: drain error %v != oracle %v", label, got.drainErr, want.drainErr)
	}
	if !reflect.DeepEqual(got.records, want.records) {
		t.Fatalf("%s: per-message records diverged", label)
	}
	if !reflect.DeepEqual(got.delivered, want.delivered) {
		t.Fatalf("%s: delivery order diverged", label)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		for i := range got.events {
			if i >= len(want.events) || got.events[i] != want.events[i] {
				t.Fatalf("%s: event %d diverged:\n got:    %s\n oracle: %s", label, i,
					got.events[i], eventOr(want.events, i))
			}
		}
		t.Fatalf("%s: event stream diverged (lengths %d vs %d)", label, len(got.events), len(want.events))
	}
}

// TestSchedulerDifferential asserts the event-driven and sharded
// schedulers are tick-for-tick indistinguishable from the naive
// reference: identical final time, Stats, per-message records, delivery
// order and recorded event stream, across many seeds, in both
// synchronization modes — the three-way oracle naive ↔ event ↔ sharded.
func TestSchedulerDifferential(t *testing.T) {
	forceShardParallel(t)
	modes := []struct {
		name string
		mode SyncMode
	}{
		{"Lockstep", Lockstep},
		{"Async", Async},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for seed := uint64(0); seed < 32; seed++ {
				cfg := Config{
					Nodes:            12,
					Buses:            3,
					Mode:             m.mode,
					CompactionPeriod: 1 + int(seed%3),
					DackWindow:       int(seed % 4),
				}
				// Audit every tick on a few seeds: it cross-checks the
				// incremental counters against ground truth but is costly.
				cfg.Audit = seed < 4

				cfg.Scheduler = SchedulerNaive
				want := runPermutationWorkload(t, cfg, seed)
				cfg.Scheduler = SchedulerEventDriven
				got := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d event", seed), got, want)

				// Three arcs on twelve nodes: interior and boundary nodes
				// in every arc, with the bus set re-partitioned per tick.
				cfg.Scheduler = SchedulerSharded
				cfg.Workers = 3
				sharded := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d sharded", seed), sharded, want)
			}
		})
	}
}

func eventOr(events []string, i int) string {
	if i < len(events) {
		return events[i]
	}
	return "<missing>"
}

// TestSchedulerDifferentialHeadRules covers the head-rule ablations,
// where compaction quiescence interacts with the strict-top head pin.
func TestSchedulerDifferentialHeadRules(t *testing.T) {
	forceShardParallel(t)
	for _, rule := range []HeadRule{HeadFlexible, HeadStraightOnly, HeadStrictTop} {
		t.Run(rule.String(), func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				cfg := Config{Nodes: 10, Buses: 2, HeadRule: rule, Audit: seed == 0}
				cfg.Scheduler = SchedulerNaive
				want := runPermutationWorkload(t, cfg, seed)
				cfg.Scheduler = SchedulerEventDriven
				got := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d event", seed), got, want)
				cfg.Scheduler = SchedulerSharded
				cfg.Workers = 2
				sharded := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d sharded", seed), sharded, want)
			}
		})
	}
}

// TestSchedulerDifferentialFaults repeats the trace-identity check with
// a nonzero fault plan riding in the config: fail/repair episodes tear
// circuits down mid-flight, refuse insertions and destinations, and the
// event-driven and sharded schedulers must still match the naive oracle
// event for event — including fault counters and the recorded fault
// stream.
func TestSchedulerDifferentialFaults(t *testing.T) {
	forceShardParallel(t)
	modes := []struct {
		name string
		mode SyncMode
	}{
		{"Lockstep", Lockstep},
		{"Async", Async},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for seed := uint64(0); seed < 32; seed++ {
				cfg := Config{
					Nodes:            12,
					Buses:            3,
					Mode:             m.mode,
					CompactionPeriod: 1 + int(seed%3),
					DackWindow:       int(seed % 4),
					Faults: ChaosPlan(12, 3, ChaosOptions{
						Seed:        seed*77 + 3,
						Horizon:     2000,
						SegmentRate: 0.25,
						INCRate:     0.15,
						MeanDown:    120,
						MeanUp:      250,
					}),
				}
				cfg.Audit = seed < 4

				cfg.Scheduler = SchedulerNaive
				want := runPermutationWorkload(t, cfg, seed)
				cfg.Scheduler = SchedulerEventDriven
				got := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d event", seed), got, want)

				cfg.Scheduler = SchedulerSharded
				cfg.Workers = 3
				sharded := runPermutationWorkload(t, cfg, seed)
				compareRuns(t, fmt.Sprintf("seed %d sharded", seed), sharded, want)
			}
		})
	}
}

// TestFastForwardStopsAtRetryDeadline proves the idle-skip never jumps
// past a pending deadline: from a state where only retry timers remain,
// FastForward lands exactly on the earliest deadline (never beyond), and
// the lockstep cycle counters advance by exactly the number of skipped
// boundary ticks.
func TestFastForwardStopsAtRetryDeadline(t *testing.T) {
	// The long retry backoff keeps the loser on the timer wheel well after
	// the winner's circuit tears down, opening a wide retry-only window.
	cfg := Config{
		Nodes: 8, Buses: 2, CompactionPeriod: 3,
		RetryBase: 512, RetryCap: 512,
		Scheduler: SchedulerEventDriven, Seed: 42,
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two senders race for the single bus level toward the same column;
	// the loser is refused and backs off onto the retry wheel.
	if _, err := n.Send(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(2, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Step until only retry timers remain (losers are torn down and the
	// winner's circuit completes), or give up.
	for i := 0; i < 4096 && !(len(n.ActiveVirtualBuses()) == 0 && n.retries.Len() > 0); i++ {
		n.Step()
	}
	if len(n.ActiveVirtualBuses()) != 0 || n.retries.Len() == 0 {
		t.Fatalf("workload did not reach a retry-only state (%d active, %d retrying); adjust the scenario",
			len(n.ActiveVirtualBuses()), n.retries.Len())
	}
	deadline, _ := n.retries.NextAt()
	if deadline <= n.Now() {
		// Deadline already due: FastForward must refuse to skip.
		if d := n.FastForward(1 << 20); d != 0 {
			t.Fatalf("skipped %d ticks across a due deadline", d)
		}
		return
	}
	beforeCycles := n.Stats().Cycles
	beforeTick := n.Now()
	d := n.FastForward(1 << 20)
	if n.Now() != deadline {
		t.Fatalf("fast-forward landed at %v, want the retry deadline %v (skipped %d)", n.Now(), deadline, d)
	}
	if d != deadline-beforeTick {
		t.Fatalf("skipped %d ticks, want %d", d, deadline-beforeTick)
	}
	// Exactly the boundary ticks in [beforeTick, deadline) advance the
	// odd/even cycle, CompactionPeriod being 3.
	wantCycles := beforeCycles
	for tk := beforeTick; tk < deadline; tk++ {
		if int64(tk)%3 == 0 {
			wantCycles++
		}
	}
	if got := n.Stats().Cycles; got != wantCycles {
		t.Fatalf("cycles after skip = %d, want %d", got, wantCycles)
	}
	// A second call must not skip further: the deadline is now due.
	if d := n.FastForward(1 << 20); d != 0 {
		t.Fatalf("second fast-forward skipped %d ticks past the deadline", d)
	}
	// The retry must actually fire on the very next Step.
	retriesBefore := n.retries.Len()
	n.Step()
	if n.retries.Len() != retriesBefore-1 {
		t.Fatalf("retry did not fire on the deadline tick")
	}
}

// TestFastForwardDrainEquivalence compares a naive tick-by-tick Drain
// against the fast-forwarding Drain on a retry-heavy workload and
// requires identical final state.
func TestFastForwardDrainEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		base := Config{Nodes: 6, Buses: 1, Seed: seed, CompactionPeriod: 2}

		run := func(s SchedulerMode) (sim.Tick, Stats, map[flit.MessageID]MsgRecord) {
			cfg := base
			cfg.Scheduler = s
			n, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hist := NewHistory(n)
			// Saturate one column so refusals and retries pile up.
			for src := 0; src < 5; src++ {
				if _, err := n.Send(NodeID(src), 5, []uint64{1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Drain(1 << 20); err != nil {
				t.Fatalf("drain: %v", err)
			}
			return n.Now(), n.Stats(), hist.Records()
		}

		nNow, nStats, nRecs := run(SchedulerNaive)
		eNow, eStats, eRecs := run(SchedulerEventDriven)
		if eNow != nNow || eStats != nStats {
			t.Fatalf("seed %d: drain diverged:\n event: t=%v %+v\n naive: t=%v %+v", seed, eNow, eStats, nNow, nStats)
		}
		if !reflect.DeepEqual(eRecs, nRecs) {
			t.Fatalf("seed %d: records diverged after drain", seed)
		}
	}
}

// TestEachRecordMatchesRecords pins the iterator to the map copy, with
// messages both finished and still queued.
func TestEachRecordMatchesRecords(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 6, Buses: 2, Seed: 3})
	for src := 0; src < 5; src++ {
		if _, err := n.Send(NodeID(src), NodeID(src+1), []uint64{9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	want := hist.Records()
	if len(want) != 6 || want[6].Done {
		t.Fatalf("Records = %v, want five finished and one queued", want)
	}
	var lastID flit.MessageID
	got := make(map[flit.MessageID]MsgRecord, len(want))
	hist.EachRecord(func(r MsgRecord) {
		if r.ID <= lastID {
			t.Fatalf("EachRecord out of order: %d after %d", r.ID, lastID)
		}
		lastID = r.ID
		got[r.ID] = r
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EachRecord visited %v, want %v", got, want)
	}
}
