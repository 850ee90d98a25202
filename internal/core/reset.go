package core

import "fmt"

// Reset re-arms an existing network to run cfg from tick zero, reusing
// every expensive long-lived allocation a fresh NewNetwork would rebuild:
// the occupancy grids and their flat backings, the SoA mirror word
// arrays, the VirtualBus / request freelists and chunk arenas, the slot
// carve arenas, the message window and its payload buffers, and the
// event-queue backing arrays. The observable state after Reset is
// bit-identical to NewNetwork(cfg) — same RNG stream position, same
// construction-time idDelay draws, same timer (At, Seq) assignment —
// which TestResetMatchesFresh pins by comparing full-state checkpoints,
// traces and stats across seeds, schedulers and chaos fault plans.
//
// The geometry (Nodes, Buses) must match the network's current shape:
// every grid, mirror and arena is sized by it, and the service-layer
// pool that motivates Reset is shape-keyed anyway. Everything else in
// cfg — scheduler, sync mode, fault plan, seed, recorder, protocol
// knobs — may change freely between runs.
//
// Under the `invariants` build tag, Reset first audits the *outgoing*
// state: a pooled network poisoned by a previous job (corrupted mirrors,
// broken conservation) fails here with an error instead of silently
// leaking its corruption into the next run. The caller must then discard
// the network. Without the tag the pre-audit is a no-op, matching the
// zero-cost contract of the per-tick harness.
func (n *Network) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	if cfg.Nodes != n.cfg.Nodes || cfg.Buses != n.cfg.Buses {
		return fmt.Errorf("core: Reset shape mismatch: network is %d nodes x %d buses, config wants %d x %d",
			n.cfg.Nodes, n.cfg.Buses, cfg.Nodes, cfg.Buses)
	}
	if err := n.preResetAudit(); err != nil {
		return fmt.Errorf("core: Reset refused, outgoing state failed audit: %w", err)
	}

	n.cfg = cfg
	n.clock.Reset()
	// NewRNG stores the seed verbatim as the SplitMix64 state, so
	// restoring it reproduces the construction-time stream exactly.
	n.rng.Restore(cfg.Seed ^ 0x524d42) // "RMB"

	// Occupancy and fault grids: the rows still alias the flat backings
	// (shape is unchanged), so zeroing the backings clears both views.
	for i := range n.occFlat {
		n.occFlat[i] = 0
	}
	for i := range n.segFaultyFlat {
		n.segFaultyFlat[i] = false
	}
	for i := range n.incFaulty {
		n.incFaulty[i] = false
	}
	n.faultySegments = 0

	// Park every live bus on the freelist for insert to recycle — the
	// same discipline sweepRemoved applies to terminal buses; insert
	// overwrites every field of a recycled bus before it goes live.
	for i, vb := range n.active {
		n.vbFree = append(n.vbFree, vb)
		n.active[i] = nil
	}
	n.active = n.active[:0]

	// Recycle queued requests and restore each node's inline queue slot.
	// Send overwrites every field of a recycled request, so requests from
	// the dropped run (multicast included) are safe to hand back out.
	for node := range n.pending {
		for i, req := range n.pending[node] {
			n.reqFree = append(n.reqFree, req)
			n.pending[node][i] = nil
		}
		n.pendingSlots[node] = nil
		n.pending[node] = n.pendingSlots[node : node : node+1]
	}
	n.pendingCount = 0

	// Requests referenced only by dropped retry closures are garbage, not
	// recyclable: Reset cannot reach through the closures to reclaim them.
	n.retries.Reset()
	n.faults.Reset()

	for i := range n.incs {
		n.incs[i] = incState{}
	}

	n.nextVB = 0
	n.stats = Stats{}
	n.resetWindow()
	n.rec = nopRecorder{}
	n.recOn = false
	n.globalCycle = 0
	n.insertRotate = 0
	n.naive = cfg.Scheduler == SchedulerNaive
	n.busySegments = 0
	n.compactAwake = 0
	n.deadVBs = 0
	n.fwdActive = 0
	n.bwdActive = 0
	n.xferActive = 0
	n.planBuf = n.planBuf[:0]
	n.invariantChecks = 0

	if cfg.Mode == Async {
		if n.asyncDirty == nil {
			n.asyncDirty = make([]bool, cfg.Nodes)
		} else {
			for i := range n.asyncDirty {
				n.asyncDirty[i] = false
			}
		}
	} else {
		n.asyncDirty = nil
	}

	// SoA mirrors: zero in place. The three per-level bitset families
	// share one backing array but zeroing each view is simpler than
	// recovering it; slot bitsets keep their capacity (they never shrink
	// and rebuildSlots zeroes full width, so stale words cannot revive).
	for l := range n.occBits {
		for w := range n.occBits[l] {
			n.occBits[l][w] = 0
			n.faultyBits[l][w] = 0
			n.busyBits[l][w] = 0
		}
	}
	for i := range n.occVB {
		n.occVB[i] = nil
	}
	zeroBits(n.extBits)
	zeroBits(n.bwdBits)
	zeroBits(n.awakeBits)
	zeroBits(n.xferScan)
	zeroBits(n.pendingBits)
	for i := range n.incStatus {
		n.incStatus[i] = 0
	}
	if cfg.MaxSendPerNode <= 0 || cfg.MaxRecvPerNode <= 0 {
		// Mirror initSoA's degenerate-budget derivation; unreachable
		// through Validate+withDefaults but kept so Reset and initSoA can
		// never disagree on the packed bytes.
		for node := range n.incStatus {
			n.refreshSendStatus(NodeID(node))
			n.refreshRecvStatus(NodeID(node))
		}
	}
	n.wheel = n.wheel[:0]

	// The sharded runtime is rebuilt from the new config: worker count or
	// scheduler may have changed, and initShard owns the fallback rules.
	if n.sh != nil {
		n.sh.pool.Close()
		n.sh = nil
	}
	if cfg.Scheduler == SchedulerSharded {
		n.initShard()
	}

	if cfg.Recorder != nil {
		n.rec = cfg.Recorder
		n.recOn = true
	}

	// Construction-time draws, in NewNetwork's exact order: the idDelay
	// jitters first (unconditionally — see NewNetwork's RNG-discipline
	// comment), then the fault plan's validation and scheduling (which
	// draws nothing but assigns timer sequence numbers).
	for i := range n.incs {
		n.incs[i].idDelay = 1 + n.rng.Intn(cfg.JitterMax)
	}
	if len(cfg.Faults.Events) > 0 {
		if err := n.InjectFaults(cfg.Faults); err != nil {
			return err
		}
	}
	return nil
}

// zeroBits clears every word of a bitset in place.
func zeroBits(b bitset) {
	for i := range b {
		b[i] = 0
	}
}
