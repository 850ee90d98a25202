package core

import (
	"fmt"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

// VBID identifies one virtual bus within a simulation run. IDs are never
// reused, so traces can refer to a virtual bus unambiguously even after
// teardown.
type VBID uint64

// NodeID numbers the ring's nodes 0..N-1. It aliases the flit package's
// node numbering so messages and buses share one address space.
type NodeID = flit.NodeID

// VBState is the lifecycle state of a virtual bus.
type VBState uint8

const (
	// VBExtending: the header flit is travelling clockwise, drawing the
	// virtual bus behind it one hop per tick when an output port is free.
	VBExtending VBState = iota + 1
	// VBHackReturning: the destination accepted; the Hack is travelling
	// counter-clockwise along the established bus toward the source.
	VBHackReturning
	// VBTransferring: the source is clocking data flits onto the circuit.
	VBTransferring
	// VBFinalPropagating: the final flit is in flight to the destination.
	VBFinalPropagating
	// VBFackReturning: the Fack is travelling counter-clockwise, freeing
	// each INC's port as it passes.
	VBFackReturning
	// VBNackReturning: the destination refused; the Nack is travelling
	// counter-clockwise, releasing the virtual bus as it passes.
	VBNackReturning
	// VBFaultReturning: a segment the bus occupied (or a receive tap it
	// held) failed mid-flight; a Fack-style sweep is travelling counter-
	// clockwise, releasing the virtual bus as it passes. The source will
	// retry the message.
	VBFaultReturning
	// VBDone: fully torn down after successful delivery.
	VBDone
	// VBRefused: fully torn down after a Nack; the source will retry.
	VBRefused
)

// String names the state.
func (s VBState) String() string {
	switch s {
	case VBExtending:
		return "extending"
	case VBHackReturning:
		return "hack-returning"
	case VBTransferring:
		return "transferring"
	case VBFinalPropagating:
		return "final-propagating"
	case VBFackReturning:
		return "fack-returning"
	case VBNackReturning:
		return "nack-returning"
	case VBFaultReturning:
		return "fault-returning"
	case VBDone:
		return "done"
	case VBRefused:
		return "refused"
	default:
		return fmt.Sprintf("VBState(%d)", uint8(s))
	}
}

// Active reports whether the virtual bus still occupies any segment.
func (s VBState) Active() bool { return s >= VBExtending && s <= VBFaultReturning }

// VirtualBus is one circuit being built, used, or torn down on the RMB.
//
// A virtual bus spanning h hops occupies, for each hop offset j in
// [0, h), one physical segment Levels[j] of the hop starting at node
// (Src + j) mod N. The INC's ±1 switching range appears here as the
// invariant |Levels[j+1] - Levels[j]| <= 1; compaction lowers individual
// entries without ever violating it.
type VirtualBus struct {
	// ID is the bus's unique identity.
	ID VBID
	// Msg is the message the bus carries.
	Msg flit.MessageID
	// Src and Dst are the requesting and (final) target nodes.
	Src, Dst NodeID
	// Dsts lists every destination for a multicast circuit, in clockwise
	// order ending with Dst; nil for ordinary unicast. Intermediate
	// destinations tap the virtual bus as the header passes them.
	Dsts []NodeID
	// TapIdx counts intermediate destinations already accepted.
	TapIdx int
	// claimedTaps are the receive ports currently held by this circuit
	// (acceptance until delivery or Nack teardown).
	claimedTaps []NodeID
	// Levels[j] is the physical segment used on hop (Src+j) mod N.
	// len(Levels) grows as the header advances and shrinks from the tail
	// end as a Fack or Nack frees hops.
	Levels []int
	// State is the lifecycle state.
	State VBState

	// Head is the node the header flit has reached; the next extension
	// claims a segment on the hop leaving Head. Meaningful only while
	// extending.
	Head NodeID
	// AckHop is the hop offset (index into Levels) a counter-clockwise
	// signal (Hack, Fack or Nack) currently sits on; it decrements each
	// tick until it passes hop 0.
	AckHop int

	// PayloadLen is the number of data flits the message carries.
	PayloadLen int
	// DataSent counts data flits the source has clocked onto the circuit.
	DataSent int
	// DataDelivered counts data flits that have arrived at the
	// destination (the circuit delay is SpanTicks).
	DataDelivered int
	// TransferStart is the tick the source received the Hack and began
	// clocking data.
	TransferStart sim.Tick

	// Inserted is the tick the header entered the network; Established is
	// the tick the Hack reached the source; Delivered is the tick the FF
	// reached the destination.
	Inserted, Established, Delivered sim.Tick

	// Attempt is 1 for the first insertion of the message, incremented on
	// every Nack-and-retry.
	Attempt int

	// HeadWait counts consecutive ticks the header has been blocked; used
	// by the optional starvation timeout.
	HeadWait int
	// HeadLimit is this attempt's randomized starvation timeout in ticks
	// (0 disables). Randomizing per attempt desynchronizes contending
	// senders, which would otherwise time out, retry and collide in
	// lockstep forever under heavy oversubscription.
	HeadLimit int

	// progress tracks data-transfer timing; see routing.go.
	progress transferProgress

	// compactQuiet counts consecutive lockstep compaction cycles in which
	// this bus planned no move and nothing it depends on changed. At
	// compactQuietCycles (both segment parities tried) the bus is provably
	// stable and the event-driven scheduler skips it until a wake event;
	// see Network.wakeCompaction.
	compactQuiet int8

	// slot is this bus's current index in Network.active — the bit index
	// the SoA phase bitsets (ext/bwd/awake/xferScan) use for it. Kept
	// exact by addVB and rebuildSlots; see soa.go.
	slot int32

	// parityMask bit j holds (Levels[j]+j) & 1 and bottomMask bit j holds
	// Levels[j] == 0, both for hop offsets j < 64. The compaction planner
	// combines them into a candidate mask so a cycle only visits hops
	// whose segment parity can match (and skips bottomed-out hops
	// outright); see planBusMoves. addVB derives both from Levels, and
	// every later Levels mutation (advanceHead append, applyMove sink,
	// freeTailHop pop) updates the affected bit in place.
	parityMask uint64
	bottomMask uint64

	// dstBuf inlines the destination list for unicast circuits so insert
	// and retry never allocate one. Dsts aliases dstBuf[:1] for unicast
	// and a caller-provided slice for multicast.
	dstBuf [1]NodeID

	// tapBuf inlines claimedTaps' backing array for circuits with up to
	// two receive taps (every unicast, most multicasts), so reachTarget's
	// first tap claim never allocates. Wider fan-outs spill to an
	// append-grown slice that then recycles with the struct.
	tapBuf [2]NodeID
}

// Span reports the number of hops the bus currently occupies.
func (vb *VirtualBus) Span() int { return len(vb.Levels) }

// Multicast reports whether the bus serves more than one destination.
func (vb *VirtualBus) Multicast() bool { return len(vb.Dsts) > 1 }

// nextTarget is the next destination the header must reach: the next
// unclaimed tap for a multicast, or the final destination.
func (vb *VirtualBus) nextTarget() NodeID {
	if vb.TapIdx < len(vb.Dsts) {
		return vb.Dsts[vb.TapIdx]
	}
	return vb.Dst
}

// HopNode returns the ring node at which hop offset j starts, i.e. the
// INC whose output ports drive that hop. A bus spans at most n-1 hops, so
// Src+j < 2n and a single conditional wrap replaces the modulo.
func (vb *VirtualBus) HopNode(j, n int) NodeID {
	h := int(vb.Src) + j
	if h >= n {
		h -= n
	}
	return NodeID(h)
}

// CheckLevelInvariant verifies that adjacent hop levels differ by at most
// one — the structural encoding of the INC's {l-1, l, l+1} switching
// restriction — and that all levels are within [0, k).
func (vb *VirtualBus) CheckLevelInvariant(k int) error {
	for j, l := range vb.Levels {
		if l < 0 || l >= k {
			return fmt.Errorf("core: vb %d hop %d level %d outside [0,%d)", vb.ID, j, l, k)
		}
		if j > 0 {
			d := l - vb.Levels[j-1]
			if d < -1 || d > 1 {
				return fmt.Errorf("core: vb %d hop %d level %d breaks ±1 invariant after level %d", vb.ID, j, l, vb.Levels[j-1])
			}
		}
	}
	return nil
}

// StatusAt derives the Table 1 status code for the output port the bus
// uses at hop offset j: the relation between the bus's input level at the
// INC driving hop j and the output level Levels[j]. The source hop is
// driven from the PE write interface, which may select any one output
// bus, and is reported as StatusStraight by convention.
func (vb *VirtualBus) StatusAt(j int) (PortStatus, error) {
	if j < 0 || j >= len(vb.Levels) {
		return StatusUnused, fmt.Errorf("core: vb %d has no hop %d", vb.ID, j)
	}
	if j == 0 {
		return StatusStraight, nil
	}
	return statusForOffset(vb.Levels[j-1] - vb.Levels[j])
}

// String renders a compact description for traces.
func (vb *VirtualBus) String() string {
	return fmt.Sprintf("vb%d{m%d %d->%d %s span=%d levels=%v}",
		vb.ID, vb.Msg, vb.Src, vb.Dst, vb.State, vb.Span(), vb.Levels)
}
