//go:build invariants

package core

import (
	"rmb/internal/invariant"
	"rmb/internal/sim"
)

// checkTickInvariants is the `invariants`-build half of the runtime
// harness (see internal/invariant): every Step of every scheduler ends
// by asserting the paper-level properties against the full simulator
// state, panicking with a *invariant.Violation on the first breach.
// The checks deliberately reuse the structural auditors where one
// exists (auditOccupancy, auditConservation) so the harness and the
// cfg.Audit hook can never drift apart on what "consistent" means.
func (n *Network) checkTickInvariants(now sim.Tick) {
	n.invariantChecks++
	// occupancy-levels: the occupancy grid and the virtual buses describe
	// the same world (Section 2.3's circuit integrity under compaction),
	// and the incremental busy/faulty counters agree with the grid.
	if err := n.auditOccupancy(); err != nil {
		panic(invariant.Violatef("occupancy-levels", int64(now), "%v", err))
	}
	// conservation: no message is ever lost — everything submitted is
	// delivered, riding a live virtual bus, queued at its source, or
	// waiting on the retry wheel, across nacks and fault teardowns.
	if err := n.auditConservation(); err != nil {
		panic(invariant.Violatef("conservation", int64(now), "%v", err))
	}
	// soa-coherence: the structure-of-arrays mirrors (occupancy bitsets,
	// packed INC status bytes, slot bitsets, wake wheel accounting) agree
	// with the authoritative pointer structs they shadow. The word-parallel
	// kernels trust the mirrors; this is what keeps that trust honest.
	if err := n.auditMirrors(); err != nil {
		panic(invariant.Violatef("soa-coherence", int64(now), "%v", err))
	}
	n.checkRetryBounded(now)
	n.checkFaultyUnclaimable(now)
}

// preResetAudit is the `invariants`-build half of Reset's corruption
// canary: before a network is re-armed for its next run, its *outgoing*
// state must still pass the full structural audit. A pooled network a
// previous job poisoned (torn mirrors, broken conservation, counter
// drift) is thereby caught at the pool boundary — Reset returns the
// violation and the caller discards the network — instead of leaking
// corrupted arenas into an unrelated job.
func (n *Network) preResetAudit() error { return n.Audit() }

// checkRetryBounded asserts the retry wheel cannot grow without bound or
// stall: it never holds more entries than there are unfinished messages,
// and after this tick's RunDue every remaining deadline is strictly in
// the future (a due-but-unfired retry would be a lost wakeup — the
// Theorem 1 progress condition hinges on backoffs actually firing).
func (n *Network) checkRetryBounded(now sim.Tick) {
	if l, live := n.retries.Len(), len(n.pool)-len(n.poolFree); l > live {
		panic(invariant.Violatef("retry-bounded", int64(now),
			"retry wheel holds %d entries but only %d messages are unfinished", l, live))
	}
	if next, ok := n.retries.NextAt(); ok && next <= now {
		panic(invariant.Violatef("retry-bounded", int64(now),
			"retry deadline at tick %d still pending after this tick's RunDue", next))
	}
	if n.pendingCount < 0 {
		panic(invariant.Violatef("retry-bounded", int64(now), "pendingCount went negative: %d", n.pendingCount))
	}
}

// checkFaultyUnclaimable asserts dead hardware never carries live
// traffic: a fault-disabled segment may be occupied only by a circuit
// already sweeping out backward (Fack/Nack/Fault teardown frees the
// segment as the ack passes) — never by an extending or transferring
// one. This is the graceful-degradation claim: every claim site gates
// on segUsable/faultyAt, and faultTeardown converts every live occupant
// the instant its hardware fails.
func (n *Network) checkFaultyUnclaimable(now sim.Tick) {
	for h := range n.occ {
		for l, id := range n.occ[h] {
			if id == 0 || !n.faultyAt(h, l) {
				continue
			}
			vb := n.lookupVB(id)
			if vb == nil {
				panic(invariant.Violatef("faulty-unclaimable", int64(now),
					"faulty hop %d level %d occupied by unknown vb%d", h, l, id))
			}
			switch vb.State {
			case VBFackReturning, VBNackReturning, VBFaultReturning:
				// Sweeping out; the backward pass frees this segment.
			default:
				panic(invariant.Violatef("faulty-unclaimable", int64(now),
					"faulty hop %d level %d occupied by vb%d in state %s (not sweeping out)", h, l, id, vb.State))
			}
		}
	}
}
