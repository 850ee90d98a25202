package core

import (
	"fmt"
	"sort"
	"testing"

	"rmb/internal/sim"
	"rmb/internal/workload"
)

// TestWholeBusSinksOneLevelPerTwoCycles verifies Figure 5's claim
// exactly: an unobstructed established virtual bus moves down one level
// per pair of odd/even cycles, because each hop's segment parity matches
// its INC's consideration rule exactly once per two cycles.
func TestWholeBusSinksOneLevelPerTwoCycles(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 10, Buses: 4, Seed: 1})
	// Construct an established bus pinned at level 3 on hops 1..6.
	vb := &VirtualBus{
		ID: 1, Msg: 1, Src: 1, Dst: 7, Dsts: []NodeID{7},
		State:  VBTransferring,
		Levels: []int{3, 3, 3, 3, 3, 3},
		// A payload long enough that the transfer outlives the test.
		PayloadLen: 1 << 20,
	}
	n.nextVB = 1
	// The planted bus must have the lifecycle record a real Send would
	// have created, or the message-conservation invariant (rightly)
	// reports an in-flight bus carrying an unknown message.
	rec, _ := n.admit(nil)
	*rec = MsgRecord{
		ID: vb.Msg, Src: vb.Src, Dst: vb.Dst,
		Distance:   n.Distance(vb.Src, vb.Dst),
		PayloadLen: vb.PayloadLen,
	}
	for j, l := range vb.Levels {
		n.claimSeg((1+j)%10, l, vb)
	}
	n.addVB(vb)
	n.incs[1].sendActive++
	n.refreshSendStatus(1)
	n.incs[7].recvActive++
	n.refreshRecvStatus(7)
	vb.claimedTaps = []NodeID{7}
	vb.TransferStart = 0

	// Each Step runs one lockstep cycle. After every two cycles the whole
	// bus must be exactly one level lower, until it reaches the bottom.
	for pair := 0; pair < 3; pair++ {
		n.Step()
		n.Step()
		want := 3 - (pair + 1)
		if want < 0 {
			want = 0
		}
		for j, l := range vb.Levels {
			if l != want {
				t.Fatalf("after %d cycle pairs, hop %d at level %d, want %d (levels %v)",
					pair+1, j, l, want, vb.Levels)
			}
		}
	}
}

// deliveredSet canonicalizes delivered messages.
func deliveredSet(h *History) []string {
	var out []string
	for _, m := range h.Delivered() {
		out = append(out, fmt.Sprintf("%d->%d:%d", m.Src, m.Dst, len(m.Payload)))
	}
	sort.Strings(out)
	return out
}

// TestModesDeliverIdenticalSets: Lockstep and Async modes, and all three
// head rules, must deliver exactly the same message sets for the same
// workload (timing differs; correctness may not).
func TestModesDeliverIdenticalSets(t *testing.T) {
	const N = 12
	rng := sim.NewRNG(31)
	p := workload.RandomPermutation(N, rng)
	run := func(mode SyncMode, rule HeadRule) []string {
		n, hist := mustHistory(t, Config{Nodes: N, Buses: 3, Seed: 5, Mode: mode, HeadRule: rule, Audit: true})
		for _, d := range p.Demands {
			if _, err := n.Send(NodeID(d.Src), NodeID(d.Dst), make([]uint64, d.Src+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			t.Fatalf("mode=%v rule=%v: %v", mode, rule, err)
		}
		return deliveredSet(hist)
	}
	ref := run(Lockstep, HeadFlexible)
	for _, mode := range []SyncMode{Lockstep, Async} {
		for _, rule := range []HeadRule{HeadFlexible, HeadStraightOnly, HeadStrictTop} {
			got := run(mode, rule)
			if len(got) != len(ref) {
				t.Fatalf("mode=%v rule=%v delivered %d, ref %d", mode, rule, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("mode=%v rule=%v diverges at %d: %s vs %s", mode, rule, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestDeterminism: identical configuration and workload produce identical
// statistics, tick for tick.
func TestDeterminism(t *testing.T) {
	run := func() (Stats, []string) {
		n, hist := mustHistory(t, Config{Nodes: 14, Buses: 3, Seed: 99, Mode: Async})
		rng := sim.NewRNG(7)
		p := workload.RandomPermutation(14, rng)
		for _, d := range p.Demands {
			if _, err := n.Send(NodeID(d.Src), NodeID(d.Dst), []uint64{uint64(d.Dst)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			t.Fatal(err)
		}
		return n.Stats(), deliveredSet(hist)
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Errorf("stats differ between identical runs:\n%+v\n%+v", s1, s2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivered counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Errorf("delivery %d differs: %s vs %s", i, d1[i], d2[i])
		}
	}
}

// TestSoakRandomizedWorkloads runs many random configurations with the
// full auditor armed; any invariant violation panics inside Step.
func TestSoakRandomizedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := sim.NewRNG(2026)
	for trial := 0; trial < 30; trial++ {
		nodes := 4 + rng.Intn(20)
		buses := 1 + rng.Intn(5)
		mode := Lockstep
		if rng.Bool() {
			mode = Async
		}
		rule := HeadRule(rng.Intn(3))
		n := mustNetwork(t, Config{
			Nodes: nodes, Buses: buses, Seed: rng.Uint64(),
			Mode: mode, HeadRule: rule,
			MaxSendPerNode: 1 + rng.Intn(2),
			MaxRecvPerNode: 1 + rng.Intn(2),
			DackWindow:     rng.Intn(4),
			Audit:          true,
		})
		msgs := 1 + rng.Intn(3*nodes)
		want := 0
		for i := 0; i < msgs; i++ {
			src := rng.Intn(nodes)
			if rng.Intn(5) == 0 {
				// Occasional multicast.
				fan := 1 + rng.Intn(3)
				seen := map[NodeID]bool{}
				var dsts []NodeID
				for len(dsts) < fan {
					d := NodeID(rng.Intn(nodes))
					if int(d) == src || seen[d] {
						continue
					}
					seen[d] = true
					dsts = append(dsts, d)
				}
				if _, err := n.SendMulticast(NodeID(src), dsts, make([]uint64, rng.Intn(8))); err != nil {
					t.Fatal(err)
				}
				want += len(dsts)
				continue
			}
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			if _, err := n.Send(NodeID(src), NodeID(dst), make([]uint64, rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
			want++
		}
		if err := n.Drain(3_000_000); err != nil {
			t.Fatalf("trial %d (N=%d k=%d mode=%v rule=%v): %v (%v)",
				trial, nodes, buses, mode, rule, err, n.Stats())
		}
		if got := int(n.Stats().Delivered); got != want {
			t.Errorf("trial %d: delivered %d, want %d", trial, got, want)
		}
	}
}
