package core

import (
	"fmt"
	"math/bits"

	"rmb/internal/sim"
)

// stepCompaction advances the compaction protocol one tick in the
// configured synchronization mode.
func (n *Network) stepCompaction(now sim.Tick) bool {
	if n.cfg.Mode == Lockstep {
		return n.stepCompactionLockstep(now)
	}
	return n.stepCompactionAsync(now)
}

// plannedMove is one entry of the lockstep compaction plan: vb's hop
// offset `hop` moves down one level when the plan is applied.
type plannedMove struct {
	vb  *VirtualBus
	hop int
}

// compactQuietCycles is the quiescence threshold: the cycle parity
// alternates every lockstep cycle, so two consecutive cycles in which a
// bus planned no move try both segment parities. With no wake event in
// between, every later cycle would re-derive the same empty plan, and the
// event-driven scheduler may skip the bus until something wakes it.
const compactQuietCycles = 2

// stepCompactionLockstep runs one global odd/even cycle every
// CompactionPeriod ticks: all INCs of the appropriate parity evaluate
// their moves against the pre-cycle state and the moves apply
// simultaneously, exactly the systolic behaviour of Section 2.4.
func (n *Network) stepCompactionLockstep(now sim.Tick) bool {
	if int64(now)%int64(n.cfg.CompactionPeriod) != 0 {
		return false
	}
	cycle := n.globalCycle
	n.globalCycle++
	n.stats.Cycles++
	if !n.naive && n.compactAwake == 0 {
		return false // every active bus is provably stable this cycle
	}

	// Decide every move against the pre-cycle snapshot. As proven in
	// DESIGN.md (mirroring the paper's parity argument), the decided
	// moves are pairwise non-conflicting, so simultaneous application is
	// well-defined. The plan buffer is reused across cycles; quiescent
	// buses (see compactQuietCycles) are skipped by the event scheduler.
	plan := n.planBuf[:0]
	cyc := int(cycle & 1)
	strictTop := n.cfg.HeadRule == HeadStrictTop
	if n.naive {
		// Reference kernel: plan over every active bus in ID order.
		for _, vb := range n.active {
			var planned bool
			plan, planned = n.planBusMoves(vb, cyc, strictTop, plan)
			if !planned {
				n.noteQuiescent(vb)
			}
		}
	} else {
		// Word-parallel scan over the awake population: the bit for slot i
		// is set exactly while active[i].compactQuiet < compactQuietCycles,
		// so the walk visits precisely the buses the reference loop would
		// not skip, in the same ID order. noteQuiescent clears only the
		// visited bus's own bit; nothing sets bits during the plan walk
		// (wake hooks fire in the apply loop below).
		for w := range n.awakeBits {
			m := n.awakeBits[w]
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				vb := n.active[i]
				var planned bool
				plan, planned = n.planBusMoves(vb, cyc, strictTop, plan)
				if !planned {
					n.noteQuiescent(vb)
				}
			}
		}
	}
	for _, p := range plan {
		n.applyMove(now, p.vb, p.hop)
	}
	n.planBuf = plan[:0]
	return len(plan) > 0
}

// noteQuiescent advances a bus's quiescence streak after a cycle in
// which it planned no move, retiring it from the awake population (and
// its awakeBits slot) when both parities have been tried.
func (n *Network) noteQuiescent(vb *VirtualBus) {
	if vb.compactQuiet >= compactQuietCycles {
		return
	}
	vb.compactQuiet++
	if vb.compactQuiet == compactQuietCycles {
		n.compactAwake--
		n.awakeBits.clear(int(vb.slot))
	}
}

// planBusMoves appends vb's switchable hops for cycle parity cyc to plan
// (decided against the current, i.e. pre-cycle, occupancy) and reports
// whether any move was planned. This is the inlined switchableDown of
// Figure 7, reusing a tracked hop index h instead of re-deriving it per
// candidate: the INC's parity turn, a usable (free and fault-free)
// segment below, the ±1 bound against both neighbouring hops, and the
// strict-top head pin. Faulty segments read as permanently occupied, so
// buses sink around them. The function performs pure reads of shared
// state plus writes to plan only.
//
//rmbvet:hotpath
func (n *Network) planBusMoves(vb *VirtualBus, cyc int, strictTop bool, plan []plannedMove) ([]plannedMove, bool) {
	planned := false
	levels := vb.Levels
	nodes := n.cfg.Nodes
	// Hot loop: the busy rows are walked through the contiguous flat view
	// (one bounds check, no per-level header load), and the strict-top pin
	// is a per-bus constant hoisted out of the per-hop conditions.
	busy := n.busyFlat
	nw := n.soaNW
	pin := strictTop && vb.State == VBExtending
	last := len(levels) - 1

	// Word-parallel candidate prefilter. When hop parity tracks the offset
	// — h_j ≡ Src+j (mod 2), which holds whenever N is even or the bus
	// does not wrap past node 0 — the Section 2.4 parity gate
	// (l+h+cyc ≡ 0 mod 2) reduces to comparing the per-bus parityMask bit
	// against the constant (Src+cyc)&1, and bottomMask drops level-0 hops,
	// so the walk below touches only hops that can possibly move. A bus
	// resting on a constant-parity staircase yields an empty mask half the
	// cycles without visiting a single hop.
	if last < 64 && (nodes&1 == 0 || int(vb.Src)+len(levels) <= nodes) {
		cand := vb.parityMask
		if (int(vb.Src)+cyc)&1 == 0 {
			cand = ^cand
		}
		cand &= ^uint64(0) >> uint(63-last) // keep bits [0, last]
		cand &^= vb.bottomMask
		for cand != 0 {
			j := bits.TrailingZeros64(cand)
			cand &= cand - 1
			l := levels[j]
			h := int(vb.Src) + j
			if h >= nodes {
				h -= nodes // fast path requires N even here, preserving parity
			}
			if busy[(l-1)*nw+(h>>6)]>>(uint(h)&63)&1 == 0 &&
				(j == 0 || levels[j-1] <= l) {
				if (j != last && levels[j+1] <= l) || (j == last && !pin) {
					plan = append(plan, plannedMove{vb, j})
					planned = true
				}
			}
		}
		return plan, planned
	}

	h := int(vb.Src)
	for j, l := range levels {
		if h >= nodes {
			h -= nodes
		}
		if (l+h+cyc)&1 == 0 && l > 0 &&
			busy[(l-1)*nw+(h>>6)]>>(uint(h)&63)&1 == 0 &&
			(j == 0 || levels[j-1] <= l) {
			if (j != last && levels[j+1] <= l) || (j == last && !pin) {
				plan = append(plan, plannedMove{vb, j})
				planned = true
			}
		}
		h++
	}
	return plan, planned
}

// levelMasks derives the compaction planner's per-bus prefilter masks
// from a level vector: parity bit j = (levels[j]+j)&1, bottom bit j =
// levels[j]==0, for offsets below 64. addVB seeds them here; the three
// Levels mutation sites maintain them in place.
func levelMasks(levels []int) (parity, bottom uint64) {
	for j, l := range levels {
		if j == 64 {
			break
		}
		parity |= uint64((l+j)&1) << uint(j)
		if l == 0 {
			bottom |= 1 << uint(j)
		}
	}
	return parity, bottom
}

// stepCompactionAsync drives each INC's CycleFSM one step; an INC whose
// OD flag rises performs its datapath moves at that instant.
//
// The event-driven scheduler evaluates only INCs that can possibly act:
// an INC counting down its internal delay (PhaseReadyData with ID low)
// changes state every tick, and any other INC's Step is a pure gate over
// its own flags and its neighbours' views, so it is a no-op until one of
// those inputs changes — which is exactly when asyncDirty marks it. The
// dirty bits persist across ticks, reproducing the naive loop's
// ascending-index semantics (a lower neighbour's change is visible the
// same tick, a higher neighbour's the next tick).
func (n *Network) stepCompactionAsync(now sim.Tick) bool {
	progress := false
	nn := n.cfg.Nodes
	for i := 0; i < nn; i++ {
		inc := &n.incs[i]
		countingDown := inc.fsm.Phase() == PhaseReadyData && !inc.fsm.ID
		if !n.naive && !countingDown && !n.asyncDirty[i] {
			continue
		}
		n.asyncDirty[i] = false
		if countingDown {
			inc.idDelay--
			if inc.idDelay <= 0 {
				inc.fsm.ID = true
			}
		}
		prev := (i + nn - 1) % nn
		next := (i + 1) % nn
		left := n.incs[prev].fsm.View()
		right := n.incs[next].fsm.View()
		before := inc.fsm
		res := inc.fsm.Step(left, right)
		if res.SwitchedData {
			if n.performINCMoves(now, NodeID(i), inc.fsm.Cycle) {
				progress = true
			}
		}
		if res.SwitchedCycle {
			n.stats.Cycles++
			if n.recOn {
				n.rec.CycleSwitch(now, NodeID(i), inc.fsm.Cycle)
			}
		}
		if inc.fsm.Phase() == PhaseReadyData && !inc.fsm.ID && inc.idDelay <= 0 {
			inc.idDelay = 1 + n.rng.Intn(n.cfg.JitterMax)
		}
		if inc.fsm != before {
			// Own state changed: the next gate may already be open, and
			// the neighbours may react to the new visible flags.
			n.asyncDirty[i] = true
			if inc.fsm.View() != before.View() {
				n.asyncDirty[prev] = true
				n.asyncDirty[next] = true
			}
		}
	}
	return progress
}

// performINCMoves executes the datapath switches INC i is entitled to in
// its current local cycle: segments whose parity matches (i + cycle) mod
// 2, per Section 2.4's pairing rule (even INCs consider even segments in
// even cycles and odd segments in odd cycles; odd INCs the reverse).
func (n *Network) performINCMoves(now sim.Tick, node NodeID, cycle int64) bool {
	moved := false
	h := n.hopOf(node)
	k := n.cfg.Buses
	for l := 0; l < k; l++ {
		if (l+int(node)+int(cycle))%2 != 0 {
			continue
		}
		vb := n.occupant(h, l)
		if vb == nil {
			continue
		}
		j := n.hopIndex(vb, h)
		if j < 0 || vb.Levels[j] != l {
			continue
		}
		if n.switchableDown(vb, j) {
			n.applyMove(now, vb, j)
			moved = true
		}
	}
	return moved
}

// hopIndex finds the bus's hop offset whose driving INC is hop h, or -1.
func (n *Network) hopIndex(vb *VirtualBus, h int) int {
	j := (h - int(vb.Src)) % n.cfg.Nodes
	if j < 0 {
		j += n.cfg.Nodes
	}
	if j >= len(vb.Levels) {
		return -1
	}
	return j
}

// switchableDown implements the paper's Figure 7: the transaction on a
// bus segment may move to the segment below iff, after the switch, the
// lower output port can still connect to the corresponding input port at
// both the upstream and downstream INCs. In hop-level form: the segment
// below must be free, the upstream hop (if any) must not sit above this
// hop, and the downstream hop (if any) must not sit above this hop.
func (n *Network) switchableDown(vb *VirtualBus, j int) bool {
	b := vb.Levels[j]
	if b == 0 {
		return false // already on the lowest physical segment
	}
	h := int(vb.HopNode(j, n.cfg.Nodes))
	if !n.segUsable(h, b-1) {
		// A faulty segment reads as permanently occupied: the bus sinks
		// around it (or stays put) instead of moving onto dead hardware.
		return false
	}
	if j > 0 && vb.Levels[j-1] > b {
		return false // upstream input would be two levels above the new output
	}
	last := j == len(vb.Levels)-1
	if !last && vb.Levels[j+1] > b {
		return false // downstream output would be two levels above the new input
	}
	if last && vb.State == VBExtending && n.cfg.HeadRule == HeadStrictTop {
		return false // strict-top ablation pins the head hop to the top bus
	}
	return true
}

// applyMove performs one single-hop downward move with make-before-break
// semantics, recording the Figure 7 status sequences.
func (n *Network) applyMove(now sim.Tick, vb *VirtualBus, j int) {
	b := vb.Levels[j]
	h := int(vb.HopNode(j, n.cfg.Nodes))

	// Make: drive the lower segment in parallel; break: release the old.
	// In the cycle simulator both happen within this tick; the recorded
	// sequences preserve the transient states for verification.
	n.claimSeg(h, b-1, vb)
	n.releaseSeg(h, b, vb.ID)
	vb.Levels[j] = b - 1
	if j < 64 {
		vb.parityMask ^= 1 << uint(j)
		if b == 1 {
			vb.bottomMask |= 1 << uint(j)
		}
	}
	n.wakeCompaction(vb) // the lowered hop may enable further moves

	n.stats.CompactionMoves++
	if n.recOn {
		// moveSequences reads only the neighbouring hops' levels, which
		// this move did not touch, so deriving the Figure 7 sequences
		// after the switch records exactly what the pre-switch state was.
		upOld, upNew, down, peSource, headHop := moveSequences(vb, j, b)
		n.rec.Move(Move{
			At: now, VB: vb.ID, Hop: j, Node: NodeID(h),
			From: b, To: b - 1,
			UpstreamOld: upOld, UpstreamNew: upNew, Downstream: down,
			PESource: peSource, HeadHop: headHop,
		})
	}
}

// Condition describes one of the paper's four switchable-down scenarios
// (Figure 7): the relation of the upstream input level a and downstream
// output level c to the moving level b.
type Condition struct {
	// Name is a short label ("a=b,c=b" etc.).
	Name string
	// AOffset is a-b (0 or -1); COffset is c-b (0 or -1).
	AOffset, COffset int
	// UpstreamOld, UpstreamNew, Downstream are the status sequences the
	// three affected output ports walk through.
	UpstreamOld, UpstreamNew, Downstream PortSequence
}

// FourConditions enumerates the four transition conditions of Figure 7 by
// running moveSequences over a synthetic three-hop bus for each (a, c)
// combination.
func FourConditions() []Condition {
	var out []Condition
	const b = 2
	for _, ao := range []int{0, -1} {
		for _, co := range []int{0, -1} {
			vb := &VirtualBus{Levels: []int{b + ao, b, b + co}}
			upOld, upNew, down, _, _ := moveSequences(vb, 1, b)
			out = append(out, Condition{
				Name:        fmt.Sprintf("a=b%+d, c=b%+d", ao, co),
				AOffset:     ao,
				COffset:     co,
				UpstreamOld: upOld,
				UpstreamNew: upNew,
				Downstream:  down,
			})
		}
	}
	return out
}

// OddEvenPair describes which segment parities an INC evaluates in a
// given cycle parity (the paper's Figure 8).
type OddEvenPair struct {
	INCParity     string
	CycleParity   string
	SegmentParity string
}

// OddEvenPairs returns the four rows of the Section 2.4 pairing rule.
func OddEvenPairs() []OddEvenPair {
	return []OddEvenPair{
		{"even", "even", "even"},
		{"even", "odd", "odd"},
		{"odd", "even", "odd"},
		{"odd", "odd", "even"},
	}
}
