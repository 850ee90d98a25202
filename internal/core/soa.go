package core

// Structure-of-arrays mirrors of the hot per-tick state.
//
// The pointer structs — VirtualBus, the occ grid, incState — remain the
// authoritative commit-side representation: every protocol decision is
// still made and recorded against them, and the naive scheduler never
// consults a mirror, which keeps it a true oracle for the differential
// tests. The mirrors below are derived views maintained at the exact
// write sites of their sources (claimSeg/releaseSeg, setState, addVB,
// sweepRemoved, applyFault, queuePush/queuePop, the port-budget
// refreshers), so the event scheduler can run its phase kernels as
// word-parallel scans: bits.TrailingZeros64 walks over per-level
// occupancy words, slot-indexed phase-population bitsets, a node bitset
// for non-empty insertion queues, and one packed status byte per INC. auditMirrors (wired into Audit and the -tags invariants
// harness) pins every mirror to its source after each tick.
//
// Layout:
//
//	occBits[l] / faultyBits[l]  one bit per hop h: segment (h, l)
//	                            occupied / fault-disabled
//	busyBits[l]                 occBits[l] | faultyBits[l], kept fused so
//	                            segUsable (the hottest compaction and
//	                            head-advance gate) is a single load
//	occVB[h*k+l]                the occupying bus, nil when free
//	extBits / bwdBits           one bit per active-set slot: the bus is
//	                            extending / carrying a backward signal
//	awakeBits                   slot bit: compaction-awake
//	                            (compactQuiet < compactQuietCycles)
//	xferScan                    slot bit: dormant transferring or
//	                            final-propagating bus woken this tick by
//	                            the wheel; always empty between phases
//	pendingBits                 node bit: insertion queue non-empty
//	incStatus[i]                packed INC status byte (send port full,
//	                            receive ports full, INC down)
//
// Slot discipline: VBIDs are assigned monotonically and addVB appends,
// so active stays ID-sorted with vb.slot == index; a TrailingZeros64
// walk over a slot bitset therefore visits buses in exactly the ID
// order the sequential reference loops use. sweepRemoved reassigns
// slots and rebuilds the slot bitsets in its existing O(active) pass.

import (
	"fmt"
	"math/bits"

	"rmb/internal/sim"
)

// bitset is a little-endian bit vector over uint64 words.
type bitset []uint64

// bitWords is the word count needed for n bits.
func bitWords(n int) int { return (n + 63) >> 6 }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// maskedWord returns word w of b restricted to bit indices in [lo, hi).
// Out-of-range shifts degrade to zero (Go shifts have no width cap), so
// callers only need w to overlap the range.
func maskedWord(b bitset, w, lo, hi int) uint64 {
	m := b[w]
	base := w << 6
	if base < lo {
		m &= ^uint64(0) << uint(lo-base)
	}
	if end := base + 64; end > hi {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// Packed per-INC status bits (incStatus). The paper's Table 1 gives each
// output port a 3-bit code; the per-INC admission state the insertion
// and acceptance gates consult collapses the same way into one byte.
const (
	// incSendFull: the node's send-port budget is exhausted
	// (sendActive >= MaxSendPerNode); insertion is refused.
	incSendFull uint8 = 1 << iota
	// incRecvFull: the node's receive-port budget is exhausted
	// (recvActive >= MaxRecvPerNode); acceptance is refused.
	incRecvFull
	// incDown: the INC itself has failed (incFaulty); both directions
	// refuse.
	incDown
)

// initSoA sizes the fixed-width mirrors for allocNetwork. The slot
// bitsets start empty and grow with the active set in addVB.
func (n *Network) initSoA() {
	k := n.cfg.Buses
	nw := bitWords(n.cfg.Nodes)
	words := make([]uint64, 3*k*nw)
	n.occBits = make([]bitset, k)
	n.faultyBits = make([]bitset, k)
	n.busyBits = make([]bitset, k)
	for l := 0; l < k; l++ {
		n.occBits[l] = words[l*nw : (l+1)*nw : (l+1)*nw]
		n.faultyBits[l] = words[(k+l)*nw : (k+l+1)*nw : (k+l+1)*nw]
		n.busyBits[l] = words[(2*k+l)*nw : (2*k+l+1)*nw : (2*k+l+1)*nw]
	}
	// busyFlat aliases all k busy levels contiguously (stride soaNW words
	// per level) so the compaction planner can index level l-1 of hop h
	// with one bounds check and no per-level slice-header load.
	n.busyFlat = words[2*k*nw : 3*k*nw : 3*k*nw]
	n.soaNW = nw
	n.occVB = make([]*VirtualBus, n.cfg.Nodes*k)
	n.pendingSlots = make([]*request, n.cfg.Nodes) // Reset points each queue at its slot
	n.pendingBits = make(bitset, nw)
	n.incStatus = make([]uint8, n.cfg.Nodes)
}

// occupant returns the virtual bus occupying segment l of hop h, or nil
// when the segment is free — the mirror that replaces lookupVB on the
// release-wake, INC-move, and fault-teardown paths.
func (n *Network) occupant(h, l int) *VirtualBus { return n.occVB[h*n.cfg.Buses+l] }

// refreshSendStatus recomputes the packed send-budget bit from the
// authoritative counter. Called wherever sendActive changes.
func (n *Network) refreshSendStatus(node NodeID) {
	if n.incs[node].sendActive >= n.cfg.MaxSendPerNode {
		n.incStatus[node] |= incSendFull
	} else {
		n.incStatus[node] &^= incSendFull
	}
}

// refreshRecvStatus recomputes the packed receive-budget bit from the
// authoritative counter. Called wherever recvActive changes.
func (n *Network) refreshRecvStatus(node NodeID) {
	if n.incs[node].recvActive >= n.cfg.MaxRecvPerNode {
		n.incStatus[node] |= incRecvFull
	} else {
		n.incStatus[node] &^= incRecvFull
	}
}

// refreshFaultBits recomputes hop h's column of the fault bitsets and
// the packed INC-down bit after a fault transition. Fault transitions
// are rare, so the per-level recompute is simpler than incremental
// maintenance of the seg-vs-INC overlap.
func (n *Network) refreshFaultBits(h int) {
	down := n.incFaulty[h]
	if down {
		n.incStatus[h] |= incDown
	} else {
		n.incStatus[h] &^= incDown
	}
	for l := 0; l < n.cfg.Buses; l++ {
		if down || n.segFaulty[h][l] {
			n.faultyBits[l].set(h)
			n.busyBits[l].set(h)
		} else {
			n.faultyBits[l].clear(h)
			if n.occ[h][l] == 0 {
				n.busyBits[l].clear(h)
			}
		}
	}
}

// growSlotBits extends the slot bitsets when the active set crosses a
// word boundary. The appends are self-appends (amortized growth), and
// the bitsets never shrink — rebuildSlots zeroes the full width, so
// stale high words cannot survive a sweep.
func (n *Network) growSlotBits() {
	for len(n.active) > len(n.extBits)<<6 {
		n.extBits = append(n.extBits, 0)
		n.bwdBits = append(n.bwdBits, 0)
		n.awakeBits = append(n.awakeBits, 0)
		n.xferScan = append(n.xferScan, 0)
	}
}

// rebuildSlots reassigns slot indices and recomputes the slot bitsets
// after sweepRemoved compacts the active set. xferScan is untouched: it
// is provably empty outside the forward phase, and sweeps run in the
// backward phase.
func (n *Network) rebuildSlots() {
	for w := range n.extBits {
		n.extBits[w] = 0
		n.bwdBits[w] = 0
		n.awakeBits[w] = 0
	}
	for i, vb := range n.active {
		vb.slot = int32(i)
		switch vb.State {
		case VBExtending:
			n.extBits.set(i)
		case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
			n.bwdBits.set(i)
		case VBTransferring, VBFinalPropagating:
			// Dormant between wheel wakes; no scan bit.
		case VBDone, VBRefused:
			// Unreachable: the sweep just removed every terminal bus.
		}
		if vb.compactQuiet < compactQuietCycles {
			n.awakeBits.set(i)
		}
	}
}

// queuePush appends a request to a node's insertion queue, keeping the
// pending population mirrors (pendingBits, pendingCount) exact.
//
//rmbvet:hotpath
func (n *Network) queuePush(node NodeID, req *request) {
	if len(n.pending[node]) == 0 {
		n.pendingBits.set(int(node))
	}
	n.pending[node] = append(n.pending[node], req)
	n.pendingCount++
}

// queuePop removes and returns the head of a node's insertion queue. A
// drained queue resets to its inline pendingSlots slot so the node's
// next push is allocation-free again.
//
//rmbvet:hotpath
func (n *Network) queuePop(node int) *request {
	q := n.pending[node]
	req := q[0]
	q[0] = nil // drop the reference; the request may return to the pool
	if len(q) == 1 {
		n.pending[node] = n.pendingSlots[node : node : node+1]
		n.pendingBits.clear(node)
	} else {
		n.pending[node] = q[1:]
	}
	n.pendingCount--
	return req
}

// wakeEntry schedules a dormant transferring / final-propagating bus to
// rejoin the forward scan at tick at. Entries can go stale — a fault
// teardown may retire the bus before the deadline — so wakeDue resolves
// the ID against the live set (VBIDs are never reused, so a hit is
// always the scheduled circuit) and checks state before setting the
// scan bit. Entries are deliberately pointer-free: the wheel is the one
// long-lived hot structure the GC would otherwise scan, and pushes and
// sift swaps would pay a write barrier per moved entry.
type wakeEntry struct {
	at sim.Tick
	id VBID
}

// wheelPush schedules a wake on the manual binary min-heap. The wheel
// replaces per-tick pumping for transferring buses in the event
// scheduler: scheduleTransfer precomputes the whole flit
// timetable, so a bus needs exactly two wakes — final-flit launch and
// final-flit arrival.
//
//rmbvet:hotpath
func (n *Network) wheelPush(at sim.Tick, vb *VirtualBus) {
	n.wheel = append(n.wheel, wakeEntry{at: at, id: vb.ID})
	h := n.wheel
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// wakeDue pops every wheel entry due at or before now, marking still-
// live transferring / final-propagating buses into xferScan. It runs
// sequentially at the start of the forward phase — after the backward
// phase's beginTransfer calls, so a zero-payload transfer's same-tick
// launch wake fires on time, and after the sweep, so slots are current.
// Equal deadlines commute: a wake only sets a bit. Returns the number
// of buses woken.
//
//rmbvet:hotpath
func (n *Network) wakeDue(now sim.Tick) int {
	woken := 0
	for len(n.wheel) > 0 && n.wheel[0].at <= now {
		e := n.wheel[0]
		h := n.wheel
		last := len(h) - 1
		h[0] = h[last]
		h[last] = wakeEntry{}
		n.wheel = h[:last]
		n.wheelSiftDown()
		vb := n.lookupVB(e.id)
		if vb == nil {
			continue // retired before the deadline
		}
		switch vb.State {
		case VBTransferring, VBFinalPropagating:
			n.xferScan.set(int(vb.slot))
			woken++
		case VBExtending, VBHackReturning, VBFackReturning, VBNackReturning,
			VBFaultReturning, VBDone, VBRefused:
			// Torn down since scheduling; a replacement transfer (new ID)
			// schedules its own wakes.
		}
	}
	return woken
}

// wheelSiftDown restores the heap property after a pop.
func (n *Network) wheelSiftDown() {
	h := n.wheel
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// auditMirrors verifies every SoA mirror against its authoritative
// pointer-struct source: the occupancy and fault bitsets and the flat
// occupant mirror against the occ grid and fault flags, slot indices
// and the phase bitsets against bus states, the packed INC status bytes
// against the port counters, and the pending bitset against the queue
// lengths. Wired into Audit and (as the soa-coherence invariant) into
// the -tags invariants per-tick harness.
func (n *Network) auditMirrors() error {
	k := n.cfg.Buses
	for h := 0; h < n.cfg.Nodes; h++ {
		for l := 0; l < k; l++ {
			id := n.occ[h][l]
			if got := n.occBits[l].has(h); got != (id != 0) {
				return fmt.Errorf("core: audit: occBits[%d] bit %d is %v but grid holds vb%d", l, h, got, id)
			}
			mv := n.occVB[h*k+l]
			if id == 0 && mv != nil {
				return fmt.Errorf("core: audit: occVB[%d.%d] holds vb%d but the grid is free", h, l, mv.ID)
			}
			if id != 0 && (mv == nil || mv.ID != id) {
				return fmt.Errorf("core: audit: occVB[%d.%d] disagrees with grid occupant vb%d", h, l, id)
			}
			if got := n.faultyBits[l].has(h); got != n.faultyAt(h, l) {
				return fmt.Errorf("core: audit: faultyBits[%d] bit %d is %v but faultyAt reports %v", l, h, got, n.faultyAt(h, l))
			}
			if got := n.busyBits[l].has(h); got != (id != 0 || n.faultyAt(h, l)) {
				return fmt.Errorf("core: audit: busyBits[%d] bit %d is %v but grid holds vb%d, faulty=%v", l, h, got, id, n.faultyAt(h, l))
			}
		}
	}
	ext, bwd, awake, xfer := 0, 0, 0, 0
	for i, vb := range n.active {
		if int(vb.slot) != i {
			return fmt.Errorf("core: audit: vb%d at active index %d carries slot %d", vb.ID, i, vb.slot)
		}
		if p, b := levelMasks(vb.Levels); vb.parityMask != p || vb.bottomMask != b {
			return fmt.Errorf("core: audit: vb%d parity/bottom masks %#x/%#x but levels %v derive %#x/%#x",
				vb.ID, vb.parityMask, vb.bottomMask, vb.Levels, p, b)
		}
		isExt := vb.State == VBExtending
		isBwd := vb.State == VBHackReturning || vb.State == VBFackReturning ||
			vb.State == VBNackReturning || vb.State == VBFaultReturning
		isAwake := vb.compactQuiet < compactQuietCycles
		if n.extBits.has(i) != isExt {
			return fmt.Errorf("core: audit: extBits bit %d is %v but vb%d is %s", i, n.extBits.has(i), vb.ID, vb.State)
		}
		if n.bwdBits.has(i) != isBwd {
			return fmt.Errorf("core: audit: bwdBits bit %d is %v but vb%d is %s", i, n.bwdBits.has(i), vb.ID, vb.State)
		}
		if n.awakeBits.has(i) != isAwake {
			return fmt.Errorf("core: audit: awakeBits bit %d is %v but vb%d has compactQuiet=%d", i, n.awakeBits.has(i), vb.ID, vb.compactQuiet)
		}
		if isExt {
			ext++
		}
		if isBwd {
			bwd++
		}
		if isAwake {
			awake++
		}
		if vb.State == VBTransferring || vb.State == VBFinalPropagating {
			xfer++
		}
	}
	if xfer != n.xferActive {
		return fmt.Errorf("core: audit: xferActive=%d but %d buses are transferring/final-propagating", n.xferActive, xfer)
	}
	// Population cross-checks catch stale bits beyond len(active), which
	// the per-bus loop above cannot see.
	pops := [...]struct {
		name string
		want int
		b    bitset
	}{{"extBits", ext, n.extBits}, {"bwdBits", bwd, n.bwdBits}, {"awakeBits", awake, n.awakeBits}}
	for _, p := range pops {
		got := 0
		for _, w := range p.b {
			got += bits.OnesCount64(w)
		}
		if got != p.want {
			return fmt.Errorf("core: audit: %s holds %d set bits but %d buses qualify", p.name, got, p.want)
		}
	}
	for w, v := range n.xferScan {
		if v != 0 {
			return fmt.Errorf("core: audit: xferScan word %d is %#x outside the forward phase", w, v)
		}
	}
	for node := 0; node < n.cfg.Nodes; node++ {
		if got := n.pendingBits.has(node); got != (len(n.pending[node]) > 0) {
			return fmt.Errorf("core: audit: pendingBits bit %d is %v but node %d queues %d requests", node, got, node, len(n.pending[node]))
		}
		want := uint8(0)
		if n.incs[node].sendActive >= n.cfg.MaxSendPerNode {
			want |= incSendFull
		}
		if n.incs[node].recvActive >= n.cfg.MaxRecvPerNode {
			want |= incRecvFull
		}
		if n.incFaulty[node] {
			want |= incDown
		}
		if n.incStatus[node] != want {
			return fmt.Errorf("core: audit: incStatus[%d]=%#x but counters derive %#x", node, n.incStatus[node], want)
		}
	}
	return nil
}
