package core

import (
	"testing"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

func TestNackAndRetryOnBusyReceiver(t *testing.T) {
	// Two senders target node 0; MaxRecvPerNode=1 forces one Nack and a
	// successful retry.
	n := mustNetwork(t, Config{Nodes: 8, Buses: 3, Seed: 9, Audit: true})
	if _, err := n.Send(2, 0, make([]uint64, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(5, 0, make([]uint64, 40)); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatalf("Drain: %v (%v)", err, n.Stats())
	}
	st := n.Stats()
	if st.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", st.Delivered)
	}
	if st.Nacks == 0 {
		t.Error("expected at least one Nack from the busy receiver")
	}
	if st.Retries == 0 {
		t.Error("expected at least one retry")
	}
}

func TestMaxRecvExtensionAvoidsNacks(t *testing.T) {
	// The future-work extension: with two receive ports, the same two
	// senders are both accepted immediately.
	n := mustNetwork(t, Config{Nodes: 8, Buses: 3, Seed: 9, MaxRecvPerNode: 2, Audit: true})
	if _, err := n.Send(2, 0, make([]uint64, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(5, 0, make([]uint64, 40)); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := n.Stats(); st.Nacks != 0 {
		t.Errorf("nacks = %d, want 0 with two receive ports", st.Nacks)
	}
}

func TestMaxSendExtension(t *testing.T) {
	// With two send ports a node keeps two circuits open at once.
	n, hist := mustHistory(t, Config{Nodes: 10, Buses: 4, Seed: 2, MaxSendPerNode: 2, Audit: true})
	if _, err := n.Send(0, 4, make([]uint64, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(0, 7, make([]uint64, 200)); err != nil {
		t.Fatal(err)
	}
	sawTwo := false
	for i := 0; i < 200 && !sawTwo; i++ {
		n.Step()
		count := 0
		for _, vb := range n.ActiveVirtualBuses() {
			if vb.Src == 0 {
				count++
			}
		}
		if count == 2 {
			sawTwo = true
		}
	}
	if !sawTwo {
		t.Error("node 0 never had two concurrent outgoing circuits")
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := len(hist.Delivered()); got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestHeadTimeoutDisabledDeadlocks(t *testing.T) {
	// With the safety valve off and demand exceeding capacity on every
	// hop, the ring gridlocks exactly as analysed in DESIGN.md §7.
	const N = 12
	n := mustNetwork(t, Config{
		Nodes: N, Buses: 2, Seed: 3,
		HeadTimeout: HeadTimeoutDisabled,
	})
	for s := 0; s < N; s++ {
		if _, err := n.Send(NodeID(s), NodeID((s+N/2)%N), []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	err := n.Drain(50_000)
	if err == nil {
		t.Skip("this seed escaped gridlock; the valve remains recommended")
	}
	if n.Stats().Delivered == n.Stats().MessagesSubmitted {
		t.Error("deadlock reported but everything delivered")
	}
}

func TestHeadTimeoutRecoversSaturation(t *testing.T) {
	// The same oversubscribed workload completes with the default valve.
	const N = 12
	n := mustNetwork(t, Config{Nodes: N, Buses: 2, Seed: 3, Audit: true})
	for s := 0; s < N; s++ {
		if _, err := n.Send(NodeID(s), NodeID((s+N/2)%N), []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(2_000_000); err != nil {
		t.Fatalf("Drain: %v (%v)", err, n.Stats())
	}
	if got := n.Stats().Delivered; got != N {
		t.Errorf("delivered %d, want %d", got, N)
	}
}

func TestInsertionRequiresFreeTopBus(t *testing.T) {
	// Pin a foreign circuit onto the top segment of node 0's hop with
	// compaction disabled; node 0 must not insert until it is freed.
	n, hist := mustHistory(t, Config{Nodes: 6, Buses: 2, Seed: 1, DisableCompaction: true})
	// A long transfer from node 5 crossing node 0's hop occupies the top.
	if _, err := n.Send(5, 2, make([]uint64, 300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.Step()
	}
	if n.occ[0][1] == 0 {
		t.Fatal("setup failed: top segment of hop 0 is free")
	}
	if _, err := n.Send(0, 3, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	for _, vb := range n.ActiveVirtualBuses() {
		if vb.Src == 0 {
			t.Fatal("node 0 inserted while its top segment was occupied")
		}
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := len(hist.Delivered()); got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestLifecycleEventOrder(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 6, Buses: 2, Seed: 1})
	log := &moveLog{}
	n.SetRecorder(log)
	if _, err := n.Send(1, 4, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	want := []string{"inserted", "extended", "extended", "accepted", "established", "final-sent", "delivered", "torn-down"}
	var got []string
	for _, e := range log.events {
		got = append(got, e)
	}
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSoloTimingMatchesCostModel(t *testing.T) {
	// The schedule package's cost model (DeliveryTicks = 3d+p-1) must
	// match the simulator for an uncontended circuit.
	for _, d := range []int{1, 3, 7} {
		for _, p := range []int{0, 1, 10} {
			n, hist := mustHistory(t, Config{Nodes: 16, Buses: 3, Seed: 1})
			id, err := n.Send(0, NodeID(d), make([]uint64, p))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Drain(10_000); err != nil {
				t.Fatal(err)
			}
			rec, _ := hist.Record(id)
			want := sim.Tick(3*d + p - 1)
			if rec.Delivered-rec.FirstInserted != want {
				t.Errorf("d=%d p=%d: insertion-to-delivery = %d, want %d",
					d, p, rec.Delivered-rec.FirstInserted, want)
			}
		}
	}
}

func TestDackWindowThrottlesThroughput(t *testing.T) {
	// With a Dack window of 1 the source waits a round trip per flit, so
	// a long-distance transfer takes much longer than unthrottled.
	run := func(window int) sim.Tick {
		n, hist := mustHistory(t, Config{Nodes: 16, Buses: 2, Seed: 1, DackWindow: window})
		id, err := n.Send(0, 8, make([]uint64, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(100_000); err != nil {
			t.Fatal(err)
		}
		rec, _ := hist.Record(id)
		return rec.Delivered - rec.FirstInserted
	}
	unthrottled := run(0)
	tight := run(1)
	if tight <= unthrottled {
		t.Errorf("window=1 latency %d not above unthrottled %d", tight, unthrottled)
	}
}

func TestHeadRuleVariantsAllDeliver(t *testing.T) {
	for _, rule := range []HeadRule{HeadFlexible, HeadStraightOnly, HeadStrictTop} {
		n, hist := mustHistory(t, Config{Nodes: 10, Buses: 3, Seed: 4, HeadRule: rule, Audit: true})
		for d := 1; d < 10; d++ {
			if _, err := n.Send(0, NodeID(d), []uint64{uint64(d)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(500_000); err != nil {
			t.Fatalf("rule %v: %v", rule, err)
		}
		if got := len(hist.Delivered()); got != 9 {
			t.Errorf("rule %v delivered %d, want 9", rule, got)
		}
	}
}

func TestPendingRequestsDrainFIFO(t *testing.T) {
	// With one send port, messages queued at the same node go out in
	// submission order.
	n, hist := mustHistory(t, Config{Nodes: 8, Buses: 2, Seed: 1})
	var ids []flit.MessageID
	for i := 0; i < 4; i++ {
		id, err := n.Send(0, NodeID(3+i%4), []uint64{uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	recs := hist.Records()
	var prev sim.Tick = -1
	for _, id := range ids {
		r := recs[id]
		if r.FirstInserted <= prev {
			t.Errorf("message %d inserted at %d, not after %d", id, r.FirstInserted, prev)
		}
		prev = r.FirstInserted
	}
}

func TestHeadCandidatesAllocFree(t *testing.T) {
	// headCandidates returns its three-slot candidate array by value.
	// Every insertion attempt and head extension calls it, so a heap
	// allocation here (the old shared-scratch design risked one whenever
	// the slice escaped) would dominate saturated-workload profiles.
	// AllocsPerRun pins it at exactly zero for every head rule.
	for _, rule := range []HeadRule{HeadFlexible, HeadStrictTop, HeadStraightOnly} {
		n := mustNetwork(t, Config{Nodes: 8, Buses: 4, Seed: 1, HeadRule: rule})
		allocs := testing.AllocsPerRun(200, func() {
			for in := 0; in < 4; in++ {
				cand, cn := n.headCandidates(in)
				if cn < 1 || cn > 3 {
					t.Fatalf("%v: in=%d returned %d candidates", rule, in, cn)
				}
				_ = cand
			}
		})
		if allocs != 0 {
			t.Errorf("%v: headCandidates allocates %.1f times per run, want 0", rule, allocs)
		}
	}
}

func TestHeadCandidatesOrderAndIsolation(t *testing.T) {
	// HeadFlexible prefers straight, then down, then up (Table 1's cost
	// order), clipped at the level range edges.
	n := mustNetwork(t, Config{Nodes: 8, Buses: 4, Seed: 1})
	cases := []struct {
		in   int
		want []int32
	}{
		{0, []int32{0, 1}},    // bottom level: no down candidate
		{1, []int32{1, 0, 2}}, // interior: straight, down, up
		{3, []int32{3, 2}},    // top level: no up candidate
	}
	for _, c := range cases {
		cand, cn := n.headCandidates(c.in)
		got := cand[:cn]
		if len(got) != len(c.want) {
			t.Fatalf("in=%d: got %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("in=%d: got %v, want %v", c.in, got, c.want)
			}
		}
		// By-value return: clobbering the caller's copy must not leak
		// into a subsequent call's result.
		for i := range cand {
			cand[i] = -99
		}
		again, cn2 := n.headCandidates(c.in)
		if cn2 != cn || again[0] != c.want[0] {
			t.Fatalf("in=%d: candidate array not isolated across calls: %v", c.in, again[:cn2])
		}
	}
}
