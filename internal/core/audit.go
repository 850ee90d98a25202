package core

import "fmt"

// Audit validates every structural invariant of the simulator:
// occupancy/bus agreement, the ±1 switching constraint, Table 1 legality
// of derived status codes, send/receive port accounting, and (in Async
// mode) the Lemma 1 bound on neighbouring cycle counts. It returns the
// first violation found, or nil.
func (n *Network) Audit() error {
	if err := n.auditOccupancy(); err != nil {
		return err
	}
	if err := n.auditBuses(); err != nil {
		return err
	}
	if err := n.auditPorts(); err != nil {
		return err
	}
	if err := n.auditConservation(); err != nil {
		return err
	}
	if err := n.auditMirrors(); err != nil {
		return err
	}
	if n.cfg.Mode == Async {
		if err := n.AuditLemma1(); err != nil {
			return err
		}
	}
	return nil
}

// auditConservation checks that no message is ever lost: everything
// submitted is delivered, active as a virtual bus, queued at its source,
// or waiting in the retry timer queue. Multicasts count once (they have
// one record regardless of fanout). Only the live window is walked:
// messages below it have finished by construction, and the window's
// bottom record must be unfinished, or it would have been retired.
func (n *Network) auditConservation() error {
	if n.recBase < 1 || n.windowLen() < 0 || n.windowLen() > len(n.recSlot) {
		return fmt.Errorf("core: audit: message window [%d, %d] does not fit its %d slots", n.recBase, n.nextMsg, len(n.recSlot))
	}
	var unfinished int64
	for id := n.recBase; id <= n.nextMsg; id++ {
		e := n.entry(id)
		if e < 0 {
			if id == n.recBase {
				return fmt.Errorf("core: audit: finished message %d at the bottom of the live window was not retired", id)
			}
			continue
		}
		if int(e) >= len(n.pool) || n.pool[e].ID != id || n.pool[e].Done {
			return fmt.Errorf("core: audit: window entry %d for message %d does not hold its unfinished record", e, id)
		}
		unfinished++
	}
	if int(unfinished)+len(n.poolFree) != len(n.pool) {
		return fmt.Errorf("core: audit: record pool has %d entries but %d unfinished messages and %d free", len(n.pool), unfinished, len(n.poolFree))
	}
	// A delivered message's virtual bus lives on through the Fack sweep,
	// after its record may have been recycled; count only buses whose
	// message has not been delivered.
	inFlight := int64(0)
	for _, vb := range n.active {
		if vb.Delivered != 0 {
			continue
		}
		if n.record(vb.Msg) == nil {
			return fmt.Errorf("core: audit: undelivered vb%d carries message %d, which is not unfinished", vb.ID, vb.Msg)
		}
		inFlight++
	}
	queued := int64(0)
	for _, q := range n.pending {
		queued += int64(len(q))
	}
	if queued != int64(n.pendingCount) {
		return fmt.Errorf("core: audit: pendingCount=%d but %d requests are queued", n.pendingCount, queued)
	}
	retrying := int64(n.retries.Len())
	if unfinished != inFlight+queued+retrying {
		return fmt.Errorf("core: audit: conservation broken: %d unfinished messages but %d in flight + %d queued + %d retrying",
			unfinished, inFlight, queued, retrying)
	}
	return nil
}

// auditOccupancy checks the occupancy grid and the virtual buses describe
// the same world, and that the incremental busy-segment counter agrees
// with the grid.
func (n *Network) auditOccupancy() error {
	seen := make(map[VBID]int)
	busy := 0
	for h, hop := range n.occ {
		for l, id := range hop {
			if id == 0 {
				continue
			}
			busy++
			vb := n.lookupVB(id)
			if vb == nil {
				return fmt.Errorf("core: audit: hop %d level %d occupied by unknown vb%d", h, l, id)
			}
			j := n.hopIndex(vb, h)
			if j < 0 {
				return fmt.Errorf("core: audit: hop %d level %d occupied by vb%d which does not span it", h, l, id)
			}
			if vb.Levels[j] != l {
				return fmt.Errorf("core: audit: hop %d level %d occupied by vb%d but the bus records level %d", h, l, id, vb.Levels[j])
			}
			seen[id]++
		}
	}
	if busy != n.busySegments {
		return fmt.Errorf("core: audit: busySegments=%d but %d grid cells are occupied", n.busySegments, busy)
	}
	faulty := 0
	for h := range n.occ {
		for l := range n.occ[h] {
			if n.faultyAt(h, l) {
				faulty++
			}
		}
	}
	if faulty != n.faultySegments {
		return fmt.Errorf("core: audit: faultySegments=%d but %d grid cells are fault-disabled", n.faultySegments, faulty)
	}
	for _, vb := range n.active {
		if seen[vb.ID] != len(vb.Levels) {
			return fmt.Errorf("core: audit: vb%d spans %d hops but occupies %d segments", vb.ID, len(vb.Levels), seen[vb.ID])
		}
	}
	return nil
}

// auditBuses checks per-bus invariants: level bounds, the ±1 constraint,
// legal derived status codes, and state bookkeeping.
func (n *Network) auditBuses() error {
	for _, vb := range n.active {
		id := vb.ID
		if err := vb.CheckLevelInvariant(n.cfg.Buses); err != nil {
			return fmt.Errorf("core: audit: %w", err)
		}
		for j := range vb.Levels {
			s, err := vb.StatusAt(j)
			if err != nil {
				return fmt.Errorf("core: audit: vb%d hop %d: %w", id, j, err)
			}
			if !s.Legal() || s.Transient() {
				return fmt.Errorf("core: audit: vb%d hop %d settles in transient/illegal code %s", id, j, s.Bits())
			}
		}
		switch vb.State {
		case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
			if vb.AckHop < -1 || vb.AckHop > len(vb.Levels)-1 {
				return fmt.Errorf("core: audit: vb%d ack position %d outside span %d", id, vb.AckHop, len(vb.Levels))
			}
		case VBExtending:
			if len(vb.Levels) == 0 {
				return fmt.Errorf("core: audit: extending vb%d spans no hops", id)
			}
		case VBTransferring, VBFinalPropagating:
			if vb.DataSent < vb.DataDelivered {
				return fmt.Errorf("core: audit: vb%d delivered %d data flits but sent only %d", id, vb.DataDelivered, vb.DataSent)
			}
		case VBDone, VBRefused:
			return fmt.Errorf("core: audit: finished vb%d still registered active", id)
		}
	}
	return nil
}

// auditPorts checks the per-INC send/receive accounting against the
// active buses.
func (n *Network) auditPorts() error {
	send := make([]int, n.cfg.Nodes)
	recv := make([]int, n.cfg.Nodes)
	for _, vb := range n.active {
		send[vb.Src]++
		for _, tap := range vb.claimedTaps {
			recv[tap]++
		}
	}
	for i := range n.incs {
		if n.incs[i].sendActive != send[i] {
			return fmt.Errorf("core: audit: inc%d sendActive=%d but %d buses originate there", i, n.incs[i].sendActive, send[i])
		}
		if n.incs[i].recvActive != recv[i] {
			return fmt.Errorf("core: audit: inc%d recvActive=%d but %d accepted buses terminate there", i, n.incs[i].recvActive, recv[i])
		}
		if send[i] > n.cfg.MaxSendPerNode {
			return fmt.Errorf("core: audit: inc%d exceeds send budget: %d > %d", i, send[i], n.cfg.MaxSendPerNode)
		}
		if recv[i] > n.cfg.MaxRecvPerNode {
			return fmt.Errorf("core: audit: inc%d exceeds receive budget: %d > %d", i, recv[i], n.cfg.MaxRecvPerNode)
		}
	}
	return nil
}

// AuditLemma1 verifies the paper's Lemma 1: the number of odd/even
// transitions performed by any pair of neighbouring nodes never differs
// by more than one.
func (n *Network) AuditLemma1() error {
	nn := n.cfg.Nodes
	for i := 0; i < nn; i++ {
		a := n.incs[i].fsm.Cycle
		b := n.incs[(i+1)%nn].fsm.Cycle
		d := a - b
		if d < -1 || d > 1 {
			return fmt.Errorf("core: audit: Lemma 1 violated: inc%d at cycle %d, inc%d at cycle %d", i, a, (i+1)%nn, b)
		}
	}
	return nil
}
