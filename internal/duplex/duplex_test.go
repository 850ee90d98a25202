package duplex

import (
	"testing"

	"rmb/internal/core"
	"rmb/internal/sim"
	"rmb/internal/workload"
)

func TestValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 8, Buses: 1}); err == nil {
		t.Error("1 bus accepted (cannot split)")
	}
	if _, err := New(Config{Nodes: 1, Buses: 4}); err == nil {
		t.Error("1 node accepted")
	}
}

func TestDirectionPolicy(t *testing.T) {
	n, err := New(Config{Nodes: 10, Buses: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src, dst core.NodeID
		want     Direction
	}{
		{0, 1, Clockwise},        // distance 1 vs 9
		{0, 4, Clockwise},        // 4 vs 6
		{0, 5, Clockwise},        // tie -> clockwise
		{0, 6, CounterClockwise}, // 6 vs 4
		{0, 9, CounterClockwise}, // 9 vs 1
		{7, 2, Clockwise},        // 5 vs 5 tie
		{2, 7, Clockwise},        // 5 vs 5 tie
	}
	for _, c := range cases {
		if got := n.ChooseDirection(c.src, c.dst); got != c.want {
			t.Errorf("ChooseDirection(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestAlwaysClockwisePolicy(t *testing.T) {
	n, err := New(Config{Nodes: 10, Buses: 4, Seed: 1, Policy: AlwaysClockwise})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.ChooseDirection(0, 9); got != Clockwise {
		t.Errorf("policy ignored: %v", got)
	}
}

func TestDeliveryBothDirections(t *testing.T) {
	n, err := New(Config{Nodes: 12, Buses: 4, Seed: 3, Core: core.Config{Audit: true}})
	if err != nil {
		t.Fatal(err)
	}
	hNear, err := n.Send(0, 2, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	hFar, err := n.Send(0, 10, []uint64{22})
	if err != nil {
		t.Fatal(err)
	}
	if hNear.Dir != Clockwise || hFar.Dir != CounterClockwise {
		t.Fatalf("directions %v / %v", hNear.Dir, hFar.Dir)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	got := n.Delivered()
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	for _, m := range got {
		switch m.Payload[0] {
		case 11:
			if m.Src != 0 || m.Dst != 2 {
				t.Errorf("near message endpoints %d->%d", m.Src, m.Dst)
			}
		case 22:
			if m.Src != 0 || m.Dst != 10 {
				t.Errorf("far message endpoints un-mirrored wrong: %d->%d", m.Src, m.Dst)
			}
		default:
			t.Errorf("unknown payload %v", m.Payload)
		}
	}
}

func TestRecordUnmirrored(t *testing.T) {
	n, err := New(Config{Nodes: 12, Buses: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.Send(1, 11, []uint64{1}) // ccw distance 2
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	r, ok := n.Record(h)
	if !ok || !r.Done {
		t.Fatalf("record %+v ok=%v", r, ok)
	}
	if r.Src != 1 || r.Dst != 11 {
		t.Errorf("record endpoints %d->%d, want 1->11", r.Src, r.Dst)
	}
	if r.Distance != 2 {
		t.Errorf("mirrored distance %d, want 2", r.Distance)
	}
}

func TestShorterLatencyThanSingleRing(t *testing.T) {
	// Same total hardware (4 buses): the duplex halves worst-case
	// distance, so a far destination completes sooner than on a single
	// clockwise ring.
	const N = 16
	single, err := core.NewNetwork(core.Config{Nodes: N, Buses: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	singleHist := core.NewHistory(single)
	idS, err := single.Send(0, 15, make([]uint64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	recS, _ := singleHist.Record(idS)

	dup, err := New(Config{Nodes: N, Buses: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := dup.Send(0, 15, make([]uint64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	recD, _ := dup.Record(h)
	if recD.DeliverLatency() >= recS.DeliverLatency() {
		t.Errorf("duplex latency %d not below single-ring %d", recD.DeliverLatency(), recS.DeliverLatency())
	}
}

func TestPermutationOnDuplex(t *testing.T) {
	const N = 16
	n, err := New(Config{Nodes: N, Buses: 4, Seed: 9, Core: core.Config{Audit: true}})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(4)
	p := workload.RandomPermutation(N, rng)
	for _, d := range p.Demands {
		if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), []uint64{uint64(d.Src)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(2_000_000); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Delivered()); got != len(p.Demands) {
		t.Errorf("delivered %d/%d", got, len(p.Demands))
	}
	if int(n.Stats().Delivered) != len(p.Demands) {
		t.Errorf("stats delivered %d", n.Stats().Delivered)
	}
}

func TestMeanDistance(t *testing.T) {
	n, err := New(Config{Nodes: 16, Buses: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Shortest-path mean over distinct pairs: sum of min(d, N-d) for
	// d=1..15 is 64; 64·16/(16·15) = 4.266...
	if got := n.MeanDistance(); got < 4.2 || got > 4.3 {
		t.Errorf("duplex mean distance %v", got)
	}
	mono, err := New(Config{Nodes: 16, Buses: 4, Policy: AlwaysClockwise})
	if err != nil {
		t.Fatal(err)
	}
	if got := mono.MeanDistance(); got != 8 {
		t.Errorf("single-ring mean distance %v, want 8", got)
	}
}

func TestBusSplit(t *testing.T) {
	n, err := New(Config{Nodes: 8, Buses: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cw, ccw := n.Rings()
	if cw.Config().Buses != 3 || ccw.Config().Buses != 2 {
		t.Errorf("bus split %d/%d, want 3/2", cw.Config().Buses, ccw.Config().Buses)
	}
}

// TestDuplexStatsMergeBothRings drives one message each way and checks
// the merged view sums counters from both rings — including fields the
// old field-by-field merge missed, like Ticks and BusySegmentTicks.
func TestDuplexStatsMergeBothRings(t *testing.T) {
	n, err := New(Config{Nodes: 10, Buses: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(0, 2, []uint64{1}); err != nil { // clockwise
		t.Fatal(err)
	}
	if _, err := n.Send(0, 8, []uint64{2}); err != nil { // counter-clockwise
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	cw, ccw := n.Rings()
	if st.Delivered != 2 {
		t.Fatalf("merged Delivered = %d, want 2", st.Delivered)
	}
	if want := cw.Stats().BusySegmentTicks + ccw.Stats().BusySegmentTicks; st.BusySegmentTicks != want {
		t.Errorf("merged BusySegmentTicks = %d, want %d", st.BusySegmentTicks, want)
	}
	if st.Ticks == 0 {
		t.Error("merged Ticks is zero; the merge dropped the clock gauge")
	}
}
