//go:build invariants

package core

import (
	"testing"

	"rmb/internal/invariant"
)

// TestInvariantHarnessEnabled proves the tagged build actually runs the
// per-tick checks: a healthy workload drains cleanly and the check
// counter advances with every Step.
func TestInvariantHarnessEnabled(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("invariant.Enabled is false in an invariants-tagged build")
	}
	n, err := NewNetwork(Config{Nodes: 8, Buses: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(0, 4, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if got := n.InvariantChecks(); got == 0 {
		t.Fatal("InvariantChecks() == 0 after a drained run; the harness never fired")
	} else if got != int64(n.Now()) {
		t.Errorf("InvariantChecks() = %d, want one per tick (%d)", got, int64(n.Now()))
	}
}

// TestInvariantHarnessCatchesCorruption plants two deliberate state
// corruptions and requires the next Step to panic with the named
// *invariant.Violation — the harness must fail loudly, at the tick the
// world went wrong, not at drain time.
func TestInvariantHarnessCatchesCorruption(t *testing.T) {
	expectViolation := func(t *testing.T, name string, corrupt func(n *Network)) {
		t.Helper()
		n, err := NewNetwork(Config{Nodes: 8, Buses: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Send(1, 5, []uint64{7}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			n.Step()
		}
		corrupt(n)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("Step did not panic after %s corruption", name)
			}
			v, ok := r.(*invariant.Violation)
			if !ok {
				t.Fatalf("Step panicked with %T (%v), want *invariant.Violation", r, r)
			}
			if v.Name != name {
				t.Fatalf("violation %q, want %q (detail: %s)", v.Name, name, v.Detail)
			}
		}()
		n.Step()
	}

	t.Run("occupancy", func(t *testing.T) {
		expectViolation(t, "occupancy-levels", func(n *Network) {
			n.occ[3][1] = 12345 // grid claims a segment no virtual bus owns
		})
	})
	t.Run("conservation", func(t *testing.T) {
		expectViolation(t, "conservation", func(n *Network) {
			// Claim a queued request that no insertion queue holds.
			n.pendingCount++
		})
	})
}

// TestResetCorruptionCanary proves the pool-boundary canary works: a
// poisoned network — state a previous job corrupted in any of the ways
// the structural audit covers — must be refused by Reset under the
// invariants tag, so the service pool discards it instead of recycling
// corrupted state into an unrelated job. A healthy twin must still
// reset cleanly.
func TestResetCorruptionCanary(t *testing.T) {
	build := func(t *testing.T) *Network {
		t.Helper()
		n, err := NewNetwork(Config{Nodes: 8, Buses: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Send(1, 5, []uint64{7}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			n.Step()
		}
		return n
	}

	poisons := []struct {
		name    string
		corrupt func(n *Network)
	}{
		{"occ-grid", func(n *Network) { n.occ[3][1] = 12345 }},
		{"conservation", func(n *Network) { n.pendingCount++ }},
		{"soa-mirror", func(n *Network) { n.occBits[0].set(6) }},
		{"inc-status", func(n *Network) { n.incStatus[2] |= incSendFull }},
	}
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			n := build(t)
			defer n.Close()
			p.corrupt(n)
			if err := n.Reset(Config{Nodes: 8, Buses: 2, Seed: 1}); err == nil {
				t.Fatalf("Reset accepted a network poisoned via %s", p.name)
			}
		})
	}

	t.Run("healthy", func(t *testing.T) {
		n := build(t)
		defer n.Close()
		if err := n.Reset(Config{Nodes: 8, Buses: 2, Seed: 1}); err != nil {
			t.Fatalf("Reset refused a healthy network: %v", err)
		}
	})
}

// TestInvariantHarnessSoakWithFaults drives the event scheduler through
// chaos fault plans with the harness live: every tick of every seed is
// audited for occupancy, conservation, retry boundedness and
// faulty-segment unclaimability.
func TestInvariantHarnessSoakWithFaults(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		cfg := Config{
			Nodes:     12,
			Buses:     3,
			Seed:      seed,
			Scheduler: SchedulerEventDriven,
			Faults: ChaosPlan(12, 3, ChaosOptions{
				Seed:        seed*77 + 3,
				Horizon:     1500,
				SegmentRate: 0.25,
				INCRate:     0.15,
				MeanDown:    120,
				MeanUp:      250,
			}),
		}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			src := NodeID(int(seed+uint64(i)) % 12)
			dst := NodeID((int(src) + 1 + i%5) % 12)
			if _, err := n.Send(src, dst, []uint64{uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(50_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n.InvariantChecks() == 0 {
			t.Fatalf("seed %d: harness never fired", seed)
		}
	}
}
