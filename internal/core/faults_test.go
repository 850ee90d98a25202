package core

import (
	"reflect"
	"testing"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   FaultEvent
		ok   bool
	}{
		{"segment ok", FaultEvent{At: 0, Kind: FaultSegmentFail, Node: 1, Level: 1}, true},
		{"inc ok", FaultEvent{At: 5, Kind: FaultINCFail, Node: 3}, true},
		{"negative tick", FaultEvent{At: -1, Kind: FaultSegmentFail}, false},
		{"node high", FaultEvent{Kind: FaultSegmentFail, Node: 4}, false},
		{"level high", FaultEvent{Kind: FaultSegmentFail, Level: 2}, false},
		{"level negative", FaultEvent{Kind: FaultSegmentRepair, Level: -1}, false},
		{"inc with level", FaultEvent{Kind: FaultINCRepair, Level: 1}, false},
		{"unknown kind", FaultEvent{Kind: FaultKind(99)}, false},
		{"zero kind", FaultEvent{}, false},
	}
	for _, tc := range cases {
		err := FaultPlan{Events: []FaultEvent{tc.ev}}.Validate(4, 2)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if err := (FaultPlan{}).Validate(4, 2); err != nil {
		t.Errorf("empty plan must validate: %v", err)
	}
	// An invalid plan must be rejected at construction too.
	bad := Config{Nodes: 4, Buses: 2, Faults: FaultPlan{Events: []FaultEvent{{Kind: FaultSegmentFail, Level: 7}}}}
	if _, err := NewNetwork(bad); err == nil {
		t.Fatal("NewNetwork accepted an out-of-range fault plan")
	}
}

func TestChaosPlanDeterministicAndBounded(t *testing.T) {
	opt := ChaosOptions{Seed: 9, Horizon: 500, SegmentRate: 0.5, INCRate: 0.3}
	a := ChaosPlan(8, 3, opt)
	b := ChaosPlan(8, 3, opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ChaosPlan is not deterministic for identical options")
	}
	if len(a.Events) == 0 {
		t.Fatal("ChaosPlan generated no events at substantial rates")
	}
	if err := a.Validate(8, 3); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	fails := 0
	for _, ev := range a.Events {
		if ev.At < 0 || ev.At > opt.Horizon {
			t.Fatalf("event %v outside [0, %d]", ev, opt.Horizon)
		}
		if ev.Kind == FaultSegmentFail || ev.Kind == FaultINCFail {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("plan contains no fail events")
	}
	// Default healing: after applying the whole plan every target is up.
	n, err := NewNetwork(Config{Nodes: 8, Buses: 3, Faults: a, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for n.Now() <= opt.Horizon {
		n.Step()
	}
	if got := n.FaultySegments(); got != 0 {
		t.Fatalf("%d segments still faulty after the healing horizon", got)
	}
	if ChaosPlan(8, 3, ChaosOptions{Seed: 9, Horizon: 500}).Events != nil {
		t.Fatal("zero rates must generate an empty plan")
	}
}

// TestSegmentFaultTeardownAndRetry covers the mid-flight teardown sweep:
// a circuit crossing a segment that fails is swept back Fack-style, the
// message backs off, and it is redelivered after the repair.
func TestSegmentFaultTeardownAndRetry(t *testing.T) {
	cfg := Config{
		Nodes: 8, Buses: 2, Seed: 1, Audit: true,
		Faults: FaultPlan{Events: []FaultEvent{
			// The head inserts at the top level (k-1=1) of hop 0 and extends
			// clockwise; failing hop 2's top segment at t=3 catches the
			// circuit mid-build.
			{At: 3, Kind: FaultSegmentFail, Node: 2, Level: 1},
			{At: 40, Kind: FaultSegmentRepair, Node: 2, Level: 1},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := NewHistory(n)
	if _, err := n.Send(0, 5, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The drain can finish before the repair tick; run the plan out.
	for n.Now() <= 40 {
		n.Step()
	}
	st := n.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered %d messages, want 1", st.Delivered)
	}
	if st.SegmentFailEvents != 1 || st.SegmentRepairEvents != 1 {
		t.Fatalf("fail/repair events = %d/%d, want 1/1", st.SegmentFailEvents, st.SegmentRepairEvents)
	}
	if n.FaultySegments() != 0 {
		t.Fatal("segment still marked faulty after the repair")
	}
	if st.FaultTeardowns == 0 {
		t.Fatal("the fault did not tear the circuit down")
	}
	if st.Retries == 0 {
		t.Fatal("the torn-down message never re-entered the retry path")
	}
	rec, _ := hist.Record(1)
	if !rec.Done || rec.Attempts < 2 {
		t.Fatalf("record = %+v, want Done with at least 2 attempts", rec)
	}
	if st.FaultySegmentTicks == 0 {
		t.Fatal("FaultySegmentTicks not sampled")
	}
}

// TestInsertionRefusedOnFaultyTopSegment pins the graceful-degradation
// insertion rule: with its top segment down, a node's requests are
// refused into randomized backoff instead of inserting, and flow again
// after the repair.
func TestInsertionRefusedOnFaultyTopSegment(t *testing.T) {
	cfg := Config{
		Nodes: 6, Buses: 2, Seed: 2, Audit: true,
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 0, Kind: FaultSegmentFail, Node: 0, Level: 1},
			{At: 80, Kind: FaultSegmentRepair, Node: 0, Level: 1},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	for n.Now() < 80 {
		n.Step()
		if n.Stats().Insertions > 0 {
			t.Fatalf("inserted at t=%v while the top segment was faulty", n.Now())
		}
	}
	if n.Stats().FaultInsertRefusals == 0 {
		t.Fatal("no insertion refusals recorded while the top segment was down")
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := n.Stats()
	if st.Delivered != 1 || st.Insertions == 0 {
		t.Fatalf("after repair: delivered=%d insertions=%d, want 1/>0", st.Delivered, st.Insertions)
	}
}

// TestINCFaultRefusesDestination pins the receiver-side rule: headers
// reaching a failed INC are Nack'ed (counted separately), and the
// message is delivered after the INC recovers.
func TestINCFaultRefusesDestination(t *testing.T) {
	cfg := Config{
		Nodes: 6, Buses: 2, Seed: 3, Audit: true,
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 0, Kind: FaultINCFail, Node: 4},
			{At: 120, Kind: FaultINCRepair, Node: 4},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(2, 4, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := n.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", st.Delivered)
	}
	if st.FaultDestRefusals == 0 {
		t.Fatal("the failed destination INC never refused the header")
	}
	if st.Nacks < st.FaultDestRefusals {
		t.Fatalf("Nacks=%d < FaultDestRefusals=%d; fault refusals must also count as Nacks", st.Nacks, st.FaultDestRefusals)
	}
	if st.INCFailEvents != 1 || st.INCRepairEvents != 1 {
		t.Fatalf("INC fail/repair events = %d/%d, want 1/1", st.INCFailEvents, st.INCRepairEvents)
	}
}

// TestINCFaultTearsDownCrossingCircuit: an established circuit crossing
// the failed hop is torn down even though its endpoints are healthy.
func TestINCFaultTearsDownCrossingCircuit(t *testing.T) {
	cfg := Config{
		Nodes: 8, Buses: 2, Seed: 4, Audit: true,
		// A long payload keeps the circuit established across the fault
		// tick; the DackWindow throttle stretches the transfer further.
		DackWindow: 1,
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 12, Kind: FaultINCFail, Node: 3},
			{At: 60, Kind: FaultINCRepair, Node: 3},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]uint64, 32)
	if _, err := n.Send(1, 6, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(20_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := n.Stats()
	if st.FaultTeardowns == 0 {
		t.Fatal("the INC fault did not tear down the crossing circuit")
	}
	if st.Delivered != 1 {
		t.Fatalf("delivered %d, want 1 after recovery", st.Delivered)
	}
}

// TestCompactionSinksAroundFaultySegment: with a faulty segment in the
// sink path, the bus settles at the lowest level the ±1 invariant and
// the fault allow, without ever claiming dead hardware (claimSeg panics
// if it would).
func TestCompactionSinksAroundFaultySegment(t *testing.T) {
	cfg := Config{
		Nodes: 5, Buses: 3, Seed: 5, Audit: true,
		// Disable the transfer so the circuit parks: send a message whose
		// destination INC never frees — simpler: a long DackWindow-free
		// payload keeps the bus around long enough for compaction to settle.
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 0, Kind: FaultSegmentFail, Node: 1, Level: 0},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]uint64, 64)
	if _, err := n.Send(0, 3, payload); err != nil {
		t.Fatal(err)
	}
	lowSeen := false
	for i := 0; i < 200 && !n.Idle(); i++ {
		n.Step()
		for _, vb := range n.ActiveVirtualBuses() {
			if vb.State == VBTransferring && len(vb.Levels) == 3 &&
				vb.Levels[0] == 0 && vb.Levels[1] == 1 && vb.Levels[2] == 0 {
				lowSeen = true
			}
		}
	}
	if !lowSeen {
		t.Fatal("compaction never settled at levels [0 1 0] around the faulty segment")
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Delivered != 1 {
		t.Fatalf("delivered %d, want 1", n.Stats().Delivered)
	}
}

// TestFaultSnapshotAndAccessors covers the hardware-facing views: the
// snapshot's fault layers, the INC fault bit and the per-level FaultBits.
func TestFaultSnapshotAndAccessors(t *testing.T) {
	cfg := Config{
		Nodes: 4, Buses: 2, Seed: 6,
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 0, Kind: FaultSegmentFail, Node: 1, Level: 0},
			{At: 0, Kind: FaultINCFail, Node: 3},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Step()
	if !n.INCFaulty(3) || n.INCFaulty(1) {
		t.Fatalf("INCFaulty wrong: inc3=%v inc1=%v", n.INCFaulty(3), n.INCFaulty(1))
	}
	if got := n.FaultySegments(); got != 3 { // seg (1,0) + both levels of hop 3
		t.Fatalf("FaultySegments=%d, want 3", got)
	}
	if bits := n.FaultBits(1); !bits[0] || bits[1] {
		t.Fatalf("FaultBits(1)=%v, want [true false]", bits)
	}
	if bits := n.FaultBits(3); !bits[0] || !bits[1] {
		t.Fatalf("FaultBits(3)=%v, want all true under a failed INC", bits)
	}
	s := n.Snapshot()
	if !s.FaultySegs[1][0] || s.FaultySegs[1][1] {
		t.Fatalf("snapshot FaultySegs[1]=%v, want [true false]", s.FaultySegs[1])
	}
	if !s.FaultySegs[3][0] || !s.FaultySegs[3][1] || !s.FaultyINCs[3] {
		t.Fatal("snapshot does not reflect the failed INC")
	}
}

// TestRedundantFaultEventsAreNoOps: double-fails and spurious repairs
// change nothing and are not counted.
func TestRedundantFaultEventsAreNoOps(t *testing.T) {
	cfg := Config{
		Nodes: 4, Buses: 2, Seed: 7, Audit: true,
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 0, Kind: FaultSegmentFail, Node: 0, Level: 0},
			{At: 1, Kind: FaultSegmentFail, Node: 0, Level: 0},
			{At: 2, Kind: FaultSegmentRepair, Node: 1, Level: 1}, // healthy target
			{At: 3, Kind: FaultINCFail, Node: 2},
			{At: 4, Kind: FaultINCFail, Node: 2},
			{At: 5, Kind: FaultINCRepair, Node: 3}, // healthy target
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.Step()
	}
	st := n.Stats()
	if st.SegmentFailEvents != 1 || st.SegmentRepairEvents != 0 ||
		st.INCFailEvents != 1 || st.INCRepairEvents != 0 {
		t.Fatalf("redundant events were counted: %+v", st)
	}
	if got := n.FaultySegments(); got != 3 {
		t.Fatalf("FaultySegments=%d, want 3", got)
	}
}

// TestFastForwardStopsAtFaultDeadline: fault timers participate in the
// closed-form jump exactly like retry deadlines — the skip lands on the
// earliest fault tick and accumulates FaultySegmentTicks in closed form.
func TestFastForwardStopsAtFaultDeadline(t *testing.T) {
	cfg := Config{
		Nodes: 4, Buses: 2, Scheduler: SchedulerEventDriven, Seed: 8,
		Faults: FaultPlan{Events: []FaultEvent{
			{At: 5, Kind: FaultSegmentFail, Node: 2, Level: 0},
			{At: 25, Kind: FaultSegmentRepair, Node: 2, Level: 0},
		}},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := n.FastForward(1 << 20); d != 5 {
		t.Fatalf("first jump skipped %d ticks, want 5 (the fail deadline)", d)
	}
	if d := n.FastForward(1 << 20); d != 0 {
		t.Fatalf("jumped %d ticks across a due fault event", d)
	}
	n.Step() // applies the fail at t=5
	if n.FaultySegments() != 1 {
		t.Fatal("fail event did not apply on the deadline tick")
	}
	if d := n.FastForward(1 << 20); d != 25-6 {
		t.Fatalf("second jump skipped %d ticks, want %d (to the repair)", d, 25-6)
	}
	n.Step() // applies the repair at t=25
	if n.FaultySegments() != 0 {
		t.Fatal("repair event did not apply on the deadline tick")
	}
	if d := n.FastForward(1 << 20); d != 0 {
		t.Fatal("fast-forward skipped with no pending deadline of any kind")
	}
	// Ticks 5..24 each had one faulty segment, whether stepped or skipped.
	if got := n.Stats().FaultySegmentTicks; got != 20 {
		t.Fatalf("FaultySegmentTicks=%d, want 20", got)
	}
}

// TestRetryBackoffClamp is the regression test for the Intn(0) panic:
// config normalization must keep the backoff window positive for every
// representable config, and the draw itself is clamped defensively.
func TestRetryBackoffClamp(t *testing.T) {
	cases := []struct {
		base, cap         int
		wantBase, wantCap int
	}{
		{0, 0, 4, 256},
		{0, 2, 4, 4},   // cap below the defaulted base is raised to it
		{8, 2, 8, 8},   // cap below an explicit base is raised to it
		{3, 0, 3, 256}, // zero cap takes the default
		{5, 5, 5, 5},   // already consistent
		{1, 1024, 1, 1024},
	}
	for _, tc := range cases {
		c := Config{Nodes: 4, Buses: 2, RetryBase: tc.base, RetryCap: tc.cap}.withDefaults()
		if c.RetryBase != tc.wantBase || c.RetryCap != tc.wantCap {
			t.Errorf("base=%d cap=%d normalized to %d/%d, want %d/%d",
				tc.base, tc.cap, c.RetryBase, c.RetryCap, tc.wantBase, tc.wantCap)
		}
	}
	// Even a hand-corrupted config must not panic the draw.
	n, err := NewNetwork(Config{Nodes: 4, Buses: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	n.cfg.RetryBase, n.cfg.RetryCap = 0, 0
	for attempt := 0; attempt < 6; attempt++ {
		if d := n.backoffDelay(attempt); d < 1 {
			t.Fatalf("backoffDelay(%d)=%d, want >= 1", attempt, d)
		}
	}
	// End to end: a retry-heavy run under an adversarial cap<base config.
	cfg := Config{Nodes: 6, Buses: 1, RetryBase: 16, RetryCap: 2, Seed: 10, Audit: true}
	rn, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 5; src++ {
		if _, err := rn.Send(NodeID(src), 5, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rn.Drain(1 << 20); err != nil {
		t.Fatalf("drain under adversarial retry config: %v", err)
	}
	if rn.Stats().Delivered != 5 {
		t.Fatalf("delivered %d, want 5", rn.Stats().Delivered)
	}
}

// TestEmptyFaultPlanIsSeedIdentical: a run with an explicitly empty plan,
// and one whose only events lie beyond the drain window, are trace-for-
// trace identical to a run with no plan at all — under both schedulers.
func TestEmptyFaultPlanIsSeedIdentical(t *testing.T) {
	for _, sched := range []SchedulerMode{SchedulerNaive, SchedulerEventDriven} {
		base := Config{Nodes: 10, Buses: 2, Scheduler: sched, Mode: Lockstep}
		want := runPermutationWorkload(t, base, 11)

		empty := base
		empty.Faults = FaultPlan{Events: []FaultEvent{}}
		if got := runPermutationWorkload(t, empty, 11); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: empty plan diverged from no plan", sched)
		}
	}
}

// TestChaosSoak is the CI chaos smoke: a mixed workload under a dense
// fail/repair schedule, audited every tick, must drain cleanly and be
// identical between the naive and event-driven schedulers. CI runs it
// under -race.
func TestChaosSoak(t *testing.T) {
	forceShardParallel(t)
	for _, m := range []struct {
		name string
		mode SyncMode
	}{{"Lockstep", Lockstep}, {"Async", Async}} {
		t.Run(m.name, func(t *testing.T) {
			for seed := uint64(0); seed < 4; seed++ {
				cfg := Config{
					Nodes: 12, Buses: 3, Mode: m.mode, Audit: true,
					CompactionPeriod: 1 + int(seed%2),
					Faults: ChaosPlan(12, 3, ChaosOptions{
						Seed: seed, Horizon: 600,
						SegmentRate: 0.4, INCRate: 0.25,
						MeanDown: 60, MeanUp: 120,
					}),
				}
				cfg.Scheduler = SchedulerNaive
				want := runPermutationWorkload(t, cfg, seed)
				cfg.Scheduler = SchedulerEventDriven
				got := runPermutationWorkload(t, cfg, seed)
				if want.drainErr != nil || got.drainErr != nil {
					t.Fatalf("seed %d: drain errors: naive=%v event=%v", seed, want.drainErr, got.drainErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: chaos run diverged between schedulers:\n event: t=%v %+v\n naive: t=%v %+v",
						seed, got.now, got.stats, want.now, want.stats)
				}
				cfg.Scheduler = SchedulerSharded
				cfg.Workers = 3
				sharded := runPermutationWorkload(t, cfg, seed)
				if !reflect.DeepEqual(sharded, want) {
					t.Fatalf("seed %d: chaos run diverged between schedulers:\n sharded: t=%v %+v\n naive:   t=%v %+v",
						seed, sharded.now, sharded.stats, want.now, want.stats)
				}
				if want.stats.FaultTeardowns == 0 && want.stats.FaultInsertRefusals == 0 &&
					want.stats.FaultDestRefusals == 0 {
					t.Fatalf("seed %d: chaos plan never interfered with traffic; raise the rates", seed)
				}
			}
		})
	}
}
