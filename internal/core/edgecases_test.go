package core

import (
	"testing"

	"rmb/internal/sim"
	"rmb/internal/workload"
)

// TestOddRingSizes: the paper's odd/even marking assumes an even ring;
// with odd N two adjacent INCs share parity at the seam. The simulator's
// atomic move checks keep every invariant intact regardless (DESIGN.md
// deviation note), which these runs verify under full audit.
func TestOddRingSizes(t *testing.T) {
	for _, nodes := range []int{3, 5, 7, 9, 13} {
		for _, mode := range []SyncMode{Lockstep, Async} {
			n, hist := mustHistory(t, Config{Nodes: nodes, Buses: 3, Mode: mode, Seed: uint64(nodes), Audit: true})
			want := 0
			for d := 1; d < nodes; d++ {
				if _, err := n.Send(0, NodeID(d), []uint64{uint64(d)}); err != nil {
					t.Fatal(err)
				}
				want++
			}
			if err := n.Drain(1_000_000); err != nil {
				t.Fatalf("N=%d mode=%v: %v", nodes, mode, err)
			}
			if got := len(hist.Delivered()); got != want {
				t.Errorf("N=%d mode=%v: delivered %d/%d", nodes, mode, got, want)
			}
		}
	}
}

// TestCompactionPeriodSlowsSinking: with a longer cycle period the same
// circuit takes proportionally more ticks to reach the bottom.
func TestCompactionPeriodSlowsSinking(t *testing.T) {
	sinkTicks := func(period int) int {
		n := mustNetwork(t, Config{Nodes: 8, Buses: 4, Seed: 1, CompactionPeriod: period})
		if _, err := n.Send(0, 6, make([]uint64, 1000)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			n.Step()
			vbs := n.ActiveVirtualBuses()
			if len(vbs) != 1 {
				continue
			}
			sunk := true
			for _, l := range vbs[0].Levels {
				if l != 0 {
					sunk = false
					break
				}
			}
			if sunk && vbs[0].State != VBExtending {
				return i
			}
		}
		t.Fatal("circuit never sank")
		return 0
	}
	fast := sinkTicks(1)
	slow := sinkTicks(4)
	if slow <= fast {
		t.Errorf("period 4 sank in %d ticks, not slower than period 1's %d", slow, fast)
	}
}

// TestSingleBusDegenerate: with k=1 there is nowhere to sink, compaction
// never fires, and everything still routes (serially).
func TestSingleBusDegenerate(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 8, Buses: 1, Seed: 2, Audit: true})
	p := workload.RingShift(8, 1)
	for _, d := range p.Demands {
		if _, err := n.Send(NodeID(d.Src), NodeID(d.Dst), []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.CompactionMoves != 0 {
		t.Errorf("k=1 performed %d compaction moves", st.CompactionMoves)
	}
	if int(st.Delivered) != len(p.Demands) {
		t.Errorf("delivered %d/%d", st.Delivered, len(p.Demands))
	}
}

// TestTwoNodeRing: the smallest legal machine.
func TestTwoNodeRing(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 2, Buses: 2, Seed: 1, Audit: true})
	if _, err := n.Send(0, 1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(1, 0, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Delivered()); got != 2 {
		t.Errorf("delivered %d", got)
	}
}

// TestZeroJitterAsync: JitterMax defaults protect against Intn(0); an
// explicit 1 gives the fastest legal async cadence.
func TestZeroJitterAsync(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 6, Buses: 2, Mode: Async, JitterMax: 1, Seed: 3, Audit: true})
	if _, err := n.Send(0, 3, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	if n.GlobalCycle() == 0 {
		t.Error("no async cycles completed")
	}
}

// TestLongPayloadSingleCircuit: a payload far longer than the ring works
// and the delivery latency matches the cost model.
func TestLongPayloadSingleCircuit(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 8, Buses: 2, Seed: 1})
	const payload = 5000
	id, err := n.Send(0, 4, make([]uint64, payload))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	rec, _ := hist.Record(id)
	want := sim.Tick(3*4 + payload - 1) // the 3d+p-1 cost model
	if rec.Delivered-rec.FirstInserted != want {
		t.Errorf("latency %d, want %d", rec.Delivered-rec.FirstInserted, want)
	}
}
