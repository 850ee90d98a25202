package core

import (
	"testing"

	"rmb/internal/sim"
	"rmb/internal/workload"
)

// sendPattern submits every demand of a pattern with the given payload.
func sendPattern(t *testing.T, n *Network, p workload.Pattern, payload int) {
	t.Helper()
	for _, d := range p.Demands {
		if _, err := n.Send(NodeID(d.Src), NodeID(d.Dst), make([]uint64, payload)); err != nil {
			t.Fatalf("Send %d->%d: %v", d.Src, d.Dst, err)
		}
	}
}

// TestTheorem1KPermutationSupport is the operational form of Theorem 1 /
// the Section 3 metric: an RMB with k buses routes any k-permutation.
// We draw random h-permutations with ring load <= k and require that
// every message is delivered — with the starvation valve disabled, so
// the protocol itself (insertion + compaction) must provide the service.
func TestTheorem1KPermutationSupport(t *testing.T) {
	const N = 16
	for _, k := range []int{1, 2, 3, 4} {
		for seed := uint64(1); seed <= 10; seed++ {
			rng := sim.NewRNG(seed * 77)
			p, err := workload.BoundedLoadPermutation(N, N, k, 4000, rng)
			if err != nil {
				// Dense low-load permutations get rare for small k; take a
				// smaller h instead.
				p, err = workload.BoundedLoadPermutation(N, k+2, k, 4000, rng)
				if err != nil {
					t.Fatalf("k=%d seed=%d: %v", k, seed, err)
				}
			}
			n := mustNetwork(t, Config{
				Nodes: N, Buses: k, Seed: seed, Audit: true,
				HeadTimeout: HeadTimeoutDisabled,
			})
			sendPattern(t, n, p, 3)
			if err := n.Drain(500_000); err != nil {
				t.Fatalf("k=%d seed=%d load=%d: %v (%v)", k, seed, p.MaxRingLoad(), err, n.Stats())
			}
			if got, want := int(n.Stats().Delivered), len(p.Demands); got != want {
				t.Errorf("k=%d seed=%d: delivered %d, want %d", k, seed, got, want)
			}
		}
	}
}

// TestTheorem1RingShifts routes every uniform shift pattern whose ring
// load equals k exactly — the tightest feasible workloads.
func TestTheorem1RingShifts(t *testing.T) {
	const N = 12
	for _, k := range []int{1, 2, 3} {
		// A shift-by-s pattern has ring load s; s = k saturates exactly.
		p := workload.RingShift(N, k)
		n := mustNetwork(t, Config{
			Nodes: N, Buses: k, Seed: 1, Audit: true,
			HeadTimeout: HeadTimeoutDisabled,
		})
		sendPattern(t, n, p, 2)
		if err := n.Drain(500_000); err != nil {
			t.Fatalf("k=%d: %v (%v)", k, err, n.Stats())
		}
		if got := int(n.Stats().Delivered); got != len(p.Demands) {
			t.Errorf("k=%d delivered %d, want %d", k, got, len(p.Demands))
		}
	}
}

// TestManyShortVirtualBuses verifies the Section 4 remark: an RMB with k
// buses is not a k-bus system — it carries far more than k short virtual
// buses simultaneously.
func TestManyShortVirtualBuses(t *testing.T) {
	const N = 32
	const k = 2
	n := mustNetwork(t, Config{Nodes: N, Buses: k, Seed: 1, Audit: true})
	// Nearest-neighbour traffic: N disjoint single-hop circuits.
	p := workload.NearestNeighbour(N)
	sendPattern(t, n, p, 50)
	peak := 0
	for i := 0; i < 200; i++ {
		n.Step()
		if got := len(n.ActiveVirtualBuses()); got > peak {
			peak = got
		}
	}
	if peak <= k {
		t.Fatalf("peak concurrent virtual buses %d; want far more than k=%d", peak, k)
	}
	if peak < N/2 {
		t.Errorf("peak %d below N/2=%d; single-hop circuits should coexist widely", peak, N/2)
	}
	if err := n.Drain(500_000); err != nil {
		t.Fatal(err)
	}
}

// TestLemma1UnderTraffic runs the async cycle FSMs under live traffic and
// random jitter and audits the Lemma 1 bound continuously.
func TestLemma1UnderTraffic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		n := mustNetwork(t, Config{
			Nodes: 14, Buses: 3, Mode: Async, Seed: seed,
			JitterMax: 5, Audit: true, // Audit includes AuditLemma1 in Async mode
		})
		rng := sim.NewRNG(seed)
		p := workload.RandomPermutation(14, rng)
		sendPattern(t, n, p, 4)
		if err := n.Drain(1_000_000); err != nil {
			t.Fatalf("seed %d: %v (%v)", seed, err, n.Stats())
		}
		if err := n.AuditLemma1(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if n.GlobalCycle() == 0 {
			t.Errorf("seed %d: no cycles completed", seed)
		}
	}
}

// TestTopBusReleasedByCompaction reproduces Figure 3's point: after a
// request draws a virtual bus, compaction frees the top segments so a
// second request can insert at the same nodes while the first circuit is
// still alive.
func TestTopBusReleasedByCompaction(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 10, Buses: 3, Seed: 1, Audit: true})
	if _, err := n.Send(0, 5, make([]uint64, 400)); err != nil {
		t.Fatal(err)
	}
	// Let the first circuit establish and sink.
	for i := 0; i < 40; i++ {
		n.Step()
	}
	s := n.Snapshot()
	for h := 0; h < 5; h++ {
		if s.Occ[h][2] != 0 {
			t.Fatalf("hop %d top segment still occupied after compaction:\n%v", h, s.Occ)
		}
	}
	// A second, path-overlapping request (from another node, since each
	// node has a single send port) inserts immediately.
	id2, err := n.Send(1, 5, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	// It cannot be accepted while vb1 holds the receive port, but it must
	// at least get its header onto the (freed) top bus.
	inserted := false
	for i := 0; i < 10 && !inserted; i++ {
		n.Step()
		for _, vb := range n.ActiveVirtualBuses() {
			if vb.Msg == id2 {
				inserted = true
			}
		}
	}
	if !inserted {
		t.Error("second request could not insert while the first circuit is alive")
	}
	if err := n.Drain(500_000); err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Delivered()); got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

// TestFreeOnEveryHopSnapshot checks the snapshot helper used by the
// Theorem 1 experiment harness.
func TestFreeOnEveryHopSnapshot(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 6, Buses: 1, Seed: 1, DisableCompaction: true})
	if _, err := n.Send(1, 3, make([]uint64, 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	s := n.Snapshot()
	if s.FreeOnEveryHop(1, 3) {
		t.Error("path 1->3 reported free while occupied by the live circuit")
	}
	if !s.FreeOnEveryHop(3, 1) {
		t.Error("path 3->1 (the other side of the ring) reported blocked")
	}
	if got := s.BusySegments(); got != 2 {
		t.Errorf("busy segments = %d, want 2", got)
	}
}
