package core

import (
	"testing"
)

func TestDistanceWraps(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 10, Buses: 2})
	cases := []struct {
		src, dst NodeID
		want     int
	}{{0, 1, 1}, {0, 9, 9}, {9, 0, 1}, {5, 5, 0}, {7, 2, 5}}
	for _, c := range cases {
		if got := n.Distance(c.src, c.dst); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestRecordsAreSnapshots(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 6, Buses: 2, Seed: 1})
	id, err := n.Send(0, 3, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	before := hist.Records()
	if before[id].Done {
		t.Fatal("record done before any step")
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	// The earlier snapshot must not have been mutated.
	if before[id].Done {
		t.Error("Records() exposed live state")
	}
	after, ok := hist.Record(id)
	if !ok || !after.Done {
		t.Errorf("fresh record %+v ok=%v", after, ok)
	}
	if _, ok := hist.Record(999); ok {
		t.Error("unknown record found")
	}
	// The network itself forgets a finished message; only the history
	// keeps it.
	if r, ok := n.Record(id); ok {
		t.Errorf("network still holds finished record %+v", r)
	}
}

func TestDeliveredIsACopy(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 6, Buses: 2, Seed: 1})
	if _, err := n.Send(0, 3, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	got := hist.Delivered()
	got[0].Src = 99
	if hist.Delivered()[0].Src == 99 {
		t.Error("Delivered() exposed internal slice")
	}
}

func TestVirtualBusLookup(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 8, Buses: 2, Seed: 1})
	if _, err := n.Send(0, 5, make([]uint64, 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
	}
	vbs := n.ActiveVirtualBuses()
	if len(vbs) != 1 {
		t.Fatalf("active %d", len(vbs))
	}
	got, ok := n.VirtualBus(vbs[0].ID)
	if !ok || got.ID != vbs[0].ID {
		t.Errorf("lookup failed: %v %v", got, ok)
	}
	if _, ok := n.VirtualBus(12345); ok {
		t.Error("phantom bus found")
	}
}

func TestSetRecorderNilRestoresNoop(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 6, Buses: 2, Seed: 1})
	log := &moveLog{}
	n.SetRecorder(log)
	n.SetRecorder(nil) // back to the no-op recorder
	if _, err := n.Send(0, 3, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if len(log.events) != 0 {
		t.Errorf("events recorded after recorder removal: %v", log.events)
	}
}

func TestINCCycleAsyncPerNode(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 6, Buses: 2, Mode: Async, Seed: 2})
	if _, err := n.Send(0, 3, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	min := n.GlobalCycle()
	for i := 0; i < 6; i++ {
		c := n.INCCycle(NodeID(i))
		if c < min {
			t.Errorf("inc %d cycle %d below reported minimum %d", i, c, min)
		}
	}
}

func TestINCCycleLockstepMirrorsGlobal(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 6, Buses: 2, Seed: 1})
	for i := 0; i < 7; i++ {
		n.Step()
	}
	if n.GlobalCycle() != 7 {
		t.Errorf("global cycle %d after 7 lockstep ticks", n.GlobalCycle())
	}
	for i := 0; i < 6; i++ {
		if n.INCCycle(NodeID(i)) != n.GlobalCycle() {
			t.Errorf("inc %d cycle %d != global %d", i, n.INCCycle(NodeID(i)), n.GlobalCycle())
		}
	}
}

func TestStatsUtilizationBounds(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 8, Buses: 2, Seed: 1})
	if _, err := n.Send(0, 4, make([]uint64, 20)); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	u := st.MeanUtilization(8 * 2)
	if u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0,1]", u)
	}
	if st.MeanUtilization(0) != 0 {
		t.Error("zero capacity should yield 0")
	}
	var empty Stats
	if empty.MeanUtilization(16) != 0 || empty.MeanDeliverLatency() != 0 || empty.MeanEstablishLatency() != 0 {
		t.Error("empty stats not zero")
	}
	if st.MeanEstablishLatency() <= 0 || st.MeanEstablishLatency() > st.MeanDeliverLatency() {
		t.Errorf("establish %v vs deliver %v", st.MeanEstablishLatency(), st.MeanDeliverLatency())
	}
	if st.String() == "" {
		t.Error("stats string empty")
	}
}

func TestMsgRecordLatencyHelpers(t *testing.T) {
	r := MsgRecord{Enqueued: 5, Delivered: 25, Done: true}
	if r.DeliverLatency() != 20 {
		t.Errorf("latency %v", r.DeliverLatency())
	}
	r.Done = false
	if r.DeliverLatency() != 0 {
		t.Error("unfinished record reports latency")
	}
}

func TestConfigAccessorEchoesDefaults(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 8, Buses: 2})
	cfg := n.Config()
	if cfg.RetryBase != 4 || cfg.RetryCap != 256 || cfg.MaxSendPerNode != 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.HeadTimeout != 32 {
		t.Errorf("head timeout %d, want 4x8", cfg.HeadTimeout)
	}
}

func TestModeAndRuleStrings(t *testing.T) {
	if Lockstep.String() != "lockstep" || Async.String() != "async" {
		t.Error("mode strings wrong")
	}
	if SyncMode(9).String() == "" || HeadRule(9).String() == "" {
		t.Error("fallback strings empty")
	}
	if HeadFlexible.String() != "flexible" || HeadStrictTop.String() != "strict-top" {
		t.Error("rule strings wrong")
	}
}

func TestINCStatusRegisters(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 8, Buses: 3, Seed: 1})
	if _, err := n.Send(0, 5, make([]uint64, 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	// The circuit has sunk to level 0; mid-path INCs receive straight.
	regs := n.INCStatusRegisters(2)
	if len(regs) != 3 {
		t.Fatalf("register count %d", len(regs))
	}
	if !regs[0].InUse() {
		t.Errorf("level 0 register %s, want in use", regs[0].Bits())
	}
	if regs[2] != StatusUnused {
		t.Errorf("top register %s, want unused", regs[2].Bits())
	}
	// An INC outside the circuit's span has all ports free.
	for _, r := range n.INCStatusRegisters(6) {
		if r != StatusUnused {
			t.Errorf("idle INC has register %s", r.Bits())
		}
	}
}

func TestSnapshotConsistencyWithBuses(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 10, Buses: 3, Seed: 2})
	if _, err := n.Send(1, 7, make([]uint64, 50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.Step()
	}
	s := n.Snapshot()
	for _, vb := range s.VBs {
		for j, l := range vb.Levels {
			h := (int(vb.Src) + j) % s.Nodes
			if s.Occ[h][l] != vb.ID {
				t.Errorf("snapshot occ[%d][%d] = %d, want %d", h, l, s.Occ[h][l], vb.ID)
			}
			if !s.Status[h][l].InUse() {
				t.Errorf("status at occupied segment is %s", s.Status[h][l].Bits())
			}
		}
	}
}
