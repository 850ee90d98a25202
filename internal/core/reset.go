package core

import "fmt"

// Reset arms the network to run cfg from tick zero. It is the one place
// that sets a network's config-dependent state — the RNG seed and its
// construction-time idDelay draws, the recorder, the scheduler and Async
// flags, the fault plan — and the second half of NewNetwork, which
// allocates a bare network and Resets it. A network that already ran
// keeps every long-lived allocation: the occupancy grids and their flat
// backings, the SoA mirror word arrays, the VirtualBus / request
// freelists and chunk arenas, the slot carve arenas, the message window
// and its payload buffers, and the event-queue backing arrays. A reused
// network therefore runs exactly as a fresh one, which
// TestResetMatchesFresh pins by comparing full-state checkpoints, traces
// and stats across seeds, schedulers and chaos fault plans.
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
	n.rng.Restore(cfg.Seed ^ 0x524d42) // "RMB"

	// Occupancy and fault grids: the rows still alias the flat backings
	// (shape is unchanged), so zeroing the backings clears both views.
	clear(n.occFlat)
	clear(n.segFaultyFlat)
	clear(n.incFaulty)
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
	// Every queue starts as a cap-1 slice over the shared slot array, so
	// the common one-outstanding-request case never allocates: queuePush
	// fills the inline slot, and queuePop hands the slot back once the
	// queue drains. Deeper queues spill to ordinary append-grown slices
	// until they next empty.
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

	clear(n.incs)

	n.nextVB = 0
	n.stats = Stats{}
	n.resetWindow()
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
			clear(n.asyncDirty)
		}
	} else {
		n.asyncDirty = nil
	}

	// SoA mirrors: zero in place. The three per-level bitset families
	// share one backing array but zeroing each view is simpler than
	// recovering it; slot bitsets keep their capacity (they never shrink
	// and rebuildSlots zeroes full width, so stale words cannot revive).
	for l := range n.occBits {
		clear(n.occBits[l])
		clear(n.faultyBits[l])
		clear(n.busyBits[l])
	}
	clear(n.occVB)
	clear(n.extBits)
	clear(n.bwdBits)
	clear(n.awakeBits)
	clear(n.xferScan)
	clear(n.pendingBits)
	clear(n.incStatus)
	n.wheel = n.wheel[:0]
	n.SetRecorder(cfg.Recorder)

	// Construction-time draws: the idDelay jitters first, then the fault
	// plan's validation and scheduling (which draws nothing but assigns
	// timer sequence numbers). idDelay jitters the async CycleFSM
	// countdowns. Lockstep networks never read it, but the draws must
	// happen unconditionally anyway: every retry backoff and head-timeout
	// randomization shares this RNG, so skipping N construction draws
	// would shift the whole stream and silently change every fixed-seed
	// trajectory (goldens, EXPERIMENTS numbers) while the scheduler
	// differentials — which share the shifted stream — kept passing.
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
