package core

import (
	"fmt"
	"math/bits"

	"rmb/internal/flit"
	"rmb/internal/sim"
)

// transfer-progress fields live on VirtualBus via this embedded struct so
// the exported surface of VirtualBus stays protocol-level.
type transferProgress struct {
	// sendTicks records when each data flit was clocked onto the circuit.
	sendTicks []sim.Tick
	// deliveredIdx and dackedIdx are cursors into sendTicks for flits
	// that have arrived at the destination / been Dack'ed at the source.
	deliveredIdx, dackedIdx int
	// ffLaunchAt and ffArriveAt time the final flit (zero until known).
	ffLaunchAt, ffArriveAt sim.Tick
	ffScheduled            bool
}

// stepBackwardSignals advances every counter-clockwise signal (Hack,
// Fack, Nack) one hop and applies the effects of signals that complete.
// Completing a teardown marks the bus terminal in place (removeVB defers
// the slice surgery), so the active set is stable during the loop and is
// swept once afterwards — no per-tick defensive copy, and no O(active)
// pointer shift per individual teardown.
//
//rmbvet:hotpath
func (n *Network) stepBackwardSignals(now sim.Tick) bool {
	if n.naive {
		// Reference kernel: the full-rescan walk over the active set.
		progress := n.stepBackwardNaive(now)
		n.sweepRemoved()
		return progress
	}
	if n.bwdActive == 0 {
		// No bus carries a backward signal, so the phase is a no-op (and
		// no teardown can be pending: only this phase creates dead buses).
		return false
	}
	// Word-parallel scan over the backward population. Slot order is ID
	// order (addVB appends, sweeps re-densify), so the bits fire the same
	// order-sensitive handlers — releaseSeg wake hooks, retry RNG draws —
	// in exactly the sequence the reference walk does. Handlers only
	// clear the visited bus's own bit, so the captured word stays valid.
	progress := false
	for w := range n.bwdBits {
		m := n.bwdBits[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			vb := n.active[i]
			switch vb.State {
			case VBHackReturning:
				progress = true
				vb.AckHop--
				if vb.AckHop < 0 {
					n.beginTransfer(now, vb)
				}
			case VBFackReturning, VBNackReturning, VBFaultReturning:
				progress = true
				n.freeTailHop(vb)
				vb.AckHop--
				if vb.AckHop < 0 {
					n.finishTeardown(now, vb)
				}
			case VBExtending, VBTransferring, VBFinalPropagating, VBDone, VBRefused:
				// Unreachable: bwdBits holds exactly the backward states.
			}
		}
	}
	n.sweepRemoved()
	return progress
}

// stepBackwardNaive runs the backward kernel over the whole active set.
// Teardowns mark buses terminal in place (the active set is stable), so
// the caller sweeps once after the walk.
//
//rmbvet:hotpath
func (n *Network) stepBackwardNaive(now sim.Tick) bool {
	progress := false
	for _, vb := range n.active {
		switch vb.State {
		case VBHackReturning:
			progress = true
			vb.AckHop--
			if vb.AckHop < 0 {
				n.beginTransfer(now, vb)
			}
		case VBFackReturning, VBNackReturning, VBFaultReturning:
			progress = true
			n.freeTailHop(vb)
			vb.AckHop--
			if vb.AckHop < 0 {
				n.finishTeardown(now, vb)
			}
		case VBExtending, VBTransferring, VBFinalPropagating:
			// Forward-path states; advanced by stepForward.
		case VBDone, VBRefused:
			// Terminal states entered earlier this tick; swept after the
			// last range.
		}
	}
	return progress
}

// freeTailHop releases the bus's last remaining hop as the backward
// signal passes it: "a Fack signal is used by all intermediate INCs to
// free a port being used by that virtual bus connection".
func (n *Network) freeTailHop(vb *VirtualBus) {
	j := len(vb.Levels) - 1
	if j < 0 {
		return
	}
	h := int(vb.HopNode(j, n.cfg.Nodes))
	n.releaseSeg(h, vb.Levels[j], vb.ID)
	vb.Levels = vb.Levels[:j]
	if j < 64 {
		m := ^(uint64(1) << uint(j))
		vb.parityMask &= m
		vb.bottomMask &= m
	}
	n.wakeCompaction(vb) // the shrunken tail relaxes the downstream ±1 bound
}

// finishTeardown completes a Fack or Nack sweep that has passed the
// source hop.
func (n *Network) finishTeardown(now sim.Tick, vb *VirtualBus) {
	src := &n.incs[vb.Src]
	src.sendActive--
	n.refreshSendStatus(vb.Src)
	switch vb.State {
	case VBFackReturning:
		n.setState(vb, VBDone) // removeVB below retires the quiescence slot
		n.recVBEvent(now, vb, "torn-down")
	case VBNackReturning, VBFaultReturning:
		n.setState(vb, VBRefused)
		n.recVBEvent(now, vb, "torn-down")
		n.scheduleRetry(now, vb)
	default:
		panic(fmt.Sprintf("core: finishTeardown on vb%d in state %s", vb.ID, vb.State))
	}
	n.removeVB(vb)
}

// backoffDelay draws the randomized exponential backoff (in ticks) for a
// given attempt number: "a request which is not accepted will have to be
// tried again at a later time". The window is clamped to at least one
// tick so a misconfigured RetryBase can never feed Intn a non-positive
// bound.
func (n *Network) backoffDelay(attempt int) sim.Tick {
	backoff := n.cfg.RetryBase
	for i := 1; i < attempt && backoff < n.cfg.RetryCap; i++ {
		backoff *= 2
	}
	if backoff > n.cfg.RetryCap {
		backoff = n.cfg.RetryCap
	}
	if backoff < 1 {
		backoff = 1
	}
	return sim.Tick(1 + n.rng.Intn(backoff))
}

// retryPayload is the serializable description of a scheduled requeue:
// the checkpoint serializer reads it off the retry wheel's pending
// events (closures cannot round-trip) and restore rebuilds an equivalent
// queuePush closure from it.
type retryPayload struct {
	src NodeID
	req *request
}

// scheduleRequeue puts a request back on the retry wheel; when the timer
// fires the request rejoins its source's insertion queue.
func (n *Network) scheduleRequeue(now sim.Tick, src NodeID, req *request) {
	n.stats.Retries++
	readyAt := now + n.backoffDelay(req.attempts)
	//rmbvet:allow hotpath-alloc retry-wheel callbacks are closures by design; one per nacked insertion, never on the per-tick fast path
	n.retries.ScheduleEvent(readyAt, retryPayload{src: src, req: req}, func() {
		n.queuePush(src, req)
	})
	n.rec.Requeue(now, req.msg.ID, req.attempts, readyAt)
}

// scheduleRetry re-queues a refused message after randomized exponential
// backoff. The request comes from the freelist/arena and a unicast
// destination lands in its inline buffer, so the per-nack cost is zero
// allocations on the common path.
func (n *Network) scheduleRetry(now sim.Tick, vb *VirtualBus) {
	rec := n.record(vb.Msg)
	req := n.allocReq()
	*req = request{
		msg:      n.rebuiltMessage(vb),
		enqueued: rec.Enqueued,
		attempts: vb.Attempt,
	}
	if len(vb.Dsts) == 1 {
		req.dstBuf[0] = vb.Dsts[0]
		req.dsts = req.dstBuf[:1]
	} else {
		//rmbvet:allow hotpath-alloc the retried multicast request must own a copy: the bus and its Dsts backing array are recycled at teardown
		req.dsts = append([]NodeID(nil), vb.Dsts...)
	}
	n.scheduleRequeue(now, vb.Src, req)
}

// rebuiltMessage reconstructs the message an undelivered virtual bus
// carries from its window slot (payloads are kept aside so retries can
// reuse them without copying through the flit pipeline).
func (n *Network) rebuiltMessage(vb *VirtualBus) flit.Message {
	return flit.Message{ID: vb.Msg, Src: vb.Src, Dst: vb.Dst, Payload: n.payloadOf(vb.Msg)}
}

// beginTransfer runs when the Hack reaches the source: the circuit is
// established and data flits may flow.
func (n *Network) beginTransfer(now sim.Tick, vb *VirtualBus) {
	n.setState(vb, VBTransferring)
	n.wakeCompaction(vb)
	vb.TransferStart = now
	vb.Established = now
	if rec := n.record(vb.Msg); rec != nil {
		rec.Established = now
	}
	n.recVBEvent(now, vb, "established")
	if n.naive {
		// Reference path: the transfer is clocked tick by tick through
		// clockData/pumpData/windowOpen below.
		if vb.PayloadLen == 0 {
			vb.progress.ffLaunchAt = now
			vb.progress.ffScheduled = true
		} else if cap(vb.progress.sendTicks) < vb.PayloadLen {
			// One up-front buffer for the whole transfer instead of append
			// growth (which memmoves the full history on every doubling).
			vb.progress.sendTicks = n.carveTicks(vb.PayloadLen)
		}
		return
	}
	n.scheduleTransfer(now, vb)
}

// scheduleTransfer precomputes a transfer's entire flit timetable in
// closed form, so the event scheduler never visits the bus
// per tick: the per-tick pump recurrence collapses to
//
//	t_0 = now,  t_i = max(t_{i-1} + F, t_{i-W} + 2·span)   (W term when W > 0, i ≥ W)
//
// with F the flit cycle and W the Dack window — the i-th flit launches
// one flit cycle after its predecessor unless flow control holds it
// until the Dack for flit i−W returns (2·span round trip). The span is
// constant while the circuit is established (len(Levels) changes only
// during extension and teardown), so the whole schedule is known at the
// Hack. The bus then sleeps on the wake wheel and resurfaces exactly
// twice: at the final-flit launch (t_{L−1}+F) and, rescheduled there, at
// the final-flit arrival. The naive scheduler keeps the per-tick pump,
// so the 32-seed differential proves this closed form tick-identical to
// the incremental clocking, Dack stalls and all.
func (n *Network) scheduleTransfer(now sim.Tick, vb *VirtualBus) {
	p := &vb.progress
	L := vb.PayloadLen
	if L == 0 {
		p.ffLaunchAt = now
		p.ffScheduled = true
		n.wheelPush(now, vb) // header-only: the final flit launches this tick
		return
	}
	f := sim.Tick(n.cfg.FlitCycle)
	w := n.cfg.DackWindow
	if w <= 0 {
		// No flow-control stalls: the schedule is the arithmetic sequence
		// t_i = now + i·F, so nothing needs materializing — updateArrivals
		// recovers any flit's launch tick in closed form from
		// TransferStart (== now, set by beginTransfer).
		vb.DataSent = L
		p.sendTicks = p.sendTicks[:0]
		p.ffLaunchAt = now + sim.Tick(L)*f
		p.ffScheduled = true
		n.wheelPush(p.ffLaunchAt, vb)
		return
	}
	if cap(p.sendTicks) < L {
		p.sendTicks = n.carveTicks(L)
	}
	t := p.sendTicks[:L]
	rt := sim.Tick(2 * vb.Span())
	t[0] = now
	for i := 1; i < L; i++ {
		cur := t[i-1] + f
		if i >= w {
			if a := t[i-w] + rt; a > cur {
				cur = a
			}
		}
		t[i] = cur
	}
	p.sendTicks = t
	vb.DataSent = L
	p.ffLaunchAt = t[L-1] + f
	p.ffScheduled = true
	n.wheelPush(p.ffLaunchAt, vb)
}

// launchFinal is the event scheduler's handler for a transferring bus's
// final-flit-launch wake: the tick-for-tick twin of the transition arm
// of clockData, minus the per-tick pumping the closed-form schedule
// already did.
func (n *Network) launchFinal(now sim.Tick, vb *VirtualBus) {
	n.updateArrivals(now, vb)
	n.setState(vb, VBFinalPropagating)
	n.wakeCompaction(vb)
	vb.progress.ffArriveAt = vb.progress.ffLaunchAt + sim.Tick(vb.Span())
	n.recVBEvent(now, vb, "final-sent")
	n.wheelPush(vb.progress.ffArriveAt, vb)
}

// stepForward advances header flits, clocks data flits, and moves final
// flits toward the destination.
//
//rmbvet:hotpath
func (n *Network) stepForward(now sim.Tick) bool {
	if n.naive {
		progress := false
		// Reference kernel: the full-rescan walk over the active set. No
		// forward-phase handler adds or removes buses, so the active slice
		// can be ranged directly without a defensive copy.
		for _, vb := range n.active {
			switch vb.State {
			case VBExtending:
				if n.advanceHead(now, vb) {
					progress = true
				}
			case VBTransferring:
				if n.clockData(now, vb) {
					progress = true
				}
			case VBFinalPropagating:
				progress = true
				n.updateArrivals(now, vb)
				if now >= vb.progress.ffArriveAt {
					n.deliver(now, vb)
				}
			case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning:
				// Backward-path states; advanced by stepBackward.
			case VBDone, VBRefused:
				// Terminal states never sit in the active set; the auditor
				// flags any that linger.
			}
		}
		return progress
	}
	if n.fwdActive == 0 {
		return false // no header, data, or final flit anywhere
	}
	// A dormant transfer is forward progress every tick it exists — the
	// reference loop reports true for each transferring/final-propagating
	// bus it visits — so the population count stands in for the visits
	// the wake wheel eliminates. Snapshot before the handlers run: no bus
	// enters the transfer population during the forward phase, so the
	// phase-start count matches what the reference walk would have seen.
	progress := n.xferActive > 0
	n.wakeDue(now)
	// Word-parallel scan over extending buses merged with wheel-woken
	// transfers, clearing the ephemeral wake bits as each word is
	// consumed. Slot order is ID order, so handlers fire in the reference
	// walk's sequence; a handler only clears its own bus's bits, never a
	// later bit of the merged word.
	for w := range n.extBits {
		m := n.extBits[w] | n.xferScan[w]
		n.xferScan[w] = 0
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			vb := n.active[i]
			switch vb.State {
			case VBExtending:
				if n.advanceHead(now, vb) {
					progress = true
				}
			case VBTransferring:
				n.launchFinal(now, vb) // woken at the final-flit launch tick
			case VBFinalPropagating:
				n.updateArrivals(now, vb)
				if now >= vb.progress.ffArriveAt {
					n.deliver(now, vb)
				}
			case VBHackReturning, VBFackReturning, VBNackReturning, VBFaultReturning, VBDone, VBRefused:
				// Unreachable: the merged word holds extending buses and
				// wheel-validated transfers only.
			}
		}
	}
	return progress
}

// headCandidates lists the output levels the header may claim next, in
// preference order, given its current input level. Returned by value —
// a three-slot array and its fill count — so insertion attempts touch
// no shared scratch and provably never allocate (see
// TestHeadCandidatesAllocFree).
func (n *Network) headCandidates(in int) (cand [3]int32, cn int) {
	k := n.cfg.Buses
	switch n.cfg.HeadRule {
	case HeadStrictTop:
		cand[0] = int32(k - 1)
		return cand, 1
	case HeadStraightOnly:
		cand[0] = int32(in)
		return cand, 1
	default: // HeadFlexible
		cand[0] = int32(in)
		cn = 1
		if in-1 >= 0 {
			cand[cn] = int32(in - 1)
			cn++
		}
		if in+1 < k {
			cand[cn] = int32(in + 1)
			cn++
		}
		return cand, cn
	}
}

// advanceHead tries to extend the virtual bus one hop clockwise.
func (n *Network) advanceHead(now sim.Tick, vb *VirtualBus) bool {
	if vb.Head == vb.nextTarget() {
		n.reachTarget(now, vb)
		return true
	}
	in := vb.Levels[len(vb.Levels)-1]
	h := n.hopOf(vb.Head)
	cand, cn := n.headCandidates(in)
	for _, l32 := range cand[:cn] {
		l := int(l32)
		if !n.segUsable(h, l) {
			continue
		}
		n.claimSeg(h, l, vb)
		vb.Levels = append(vb.Levels, l)
		if j := len(vb.Levels) - 1; j < 64 {
			vb.parityMask |= uint64((l+j)&1) << uint(j)
			if l == 0 {
				vb.bottomMask |= 1 << uint(j)
			}
		}
		n.wakeCompaction(vb) // the new hop may be immediately switchable
		head := int(vb.Head) + 1
		if head >= n.cfg.Nodes {
			head = 0
		}
		vb.Head = NodeID(head)
		vb.HeadWait = 0
		n.recVBEvent(now, vb, "extended")
		if vb.Head == vb.nextTarget() {
			n.reachTarget(now, vb)
		}
		return true
	}
	vb.HeadWait++
	n.stats.HeadBlockTicks++
	if vb.HeadLimit > 0 && vb.HeadWait >= vb.HeadLimit {
		n.stats.HeadTimeouts++
		n.releaseTaps(vb)
		n.setState(vb, VBNackReturning)
		n.wakeCompaction(vb) // leaving VBExtending unpins a strict-top head hop
		vb.AckHop = len(vb.Levels) - 1
		n.recVBEvent(now, vb, "timeout")
	}
	return false
}

// reachTarget runs when the header flit reaches its next destination:
// "the INC at the destination node will accept the request if the INC and
// PE receive ports at that node are both free". For a multicast circuit
// every intermediate destination taps the bus as the header passes; a
// refusal anywhere releases the whole circuit (all-or-nothing, retried
// later).
func (n *Network) reachTarget(now sim.Tick, vb *VirtualBus) {
	node := vb.Head
	inc := &n.incs[node]
	// The event path consults the packed status byte; the naive oracle
	// keeps reading the authoritative counters, so the 32-seed
	// differential would surface any drift between the two.
	refuse := n.incStatus[node]&(incRecvFull|incDown) != 0
	if n.naive {
		refuse = inc.recvActive >= n.cfg.MaxRecvPerNode || n.incFaulty[node]
	}
	if refuse {
		if n.incFaulty[node] {
			n.stats.FaultDestRefusals++
		}
		n.stats.Nacks++
		n.releaseTaps(vb)
		n.setState(vb, VBNackReturning)
		n.wakeCompaction(vb)
		vb.AckHop = len(vb.Levels) - 1
		n.recVBEvent(now, vb, "refused")
		return
	}
	inc.recvActive++
	n.refreshRecvStatus(node)
	vb.claimedTaps = append(vb.claimedTaps, node)
	if node == vb.Dst {
		n.setState(vb, VBHackReturning)
		n.wakeCompaction(vb)
		vb.AckHop = len(vb.Levels) - 1
		n.recVBEvent(now, vb, "accepted")
		return
	}
	vb.TapIdx++
	n.recVBEvent(now, vb, "tap-accepted")
}

// releaseTaps frees every receive port the circuit has claimed.
func (n *Network) releaseTaps(vb *VirtualBus) {
	for _, node := range vb.claimedTaps {
		n.incs[node].recvActive--
		n.refreshRecvStatus(node)
	}
	vb.claimedTaps = vb.claimedTaps[:0]
	vb.TapIdx = 0
}

// clockData launches data flits from the source subject to the Dack flow
// control window, tracks arrivals, and schedules the final flit.
func (n *Network) clockData(now sim.Tick, vb *VirtualBus) bool {
	n.updateArrivals(now, vb)
	if n.pumpData(now, vb) {
		n.setState(vb, VBFinalPropagating)
		n.wakeCompaction(vb)
		vb.progress.ffArriveAt = vb.progress.ffLaunchAt + sim.Tick(vb.Span())
		n.recVBEvent(now, vb, "final-sent")
	}
	return true
}

// pumpData advances the source's data-flit clocking one tick and reports
// whether the final flit is due to launch now. It touches only vb (and
// the read-only config); the state transition the final flit triggers
// stays with the caller.
//
//rmbvet:hotpath
func (n *Network) pumpData(now sim.Tick, vb *VirtualBus) bool {
	p := &vb.progress
	if vb.DataSent < vb.PayloadLen {
		due := vb.TransferStart
		if len(p.sendTicks) > 0 {
			due = p.sendTicks[len(p.sendTicks)-1] + sim.Tick(n.cfg.FlitCycle)
		}
		if now >= due && n.windowOpen(now, vb) {
			p.sendTicks = append(p.sendTicks, now)
			vb.DataSent++
			if vb.DataSent == vb.PayloadLen {
				p.ffLaunchAt = now + sim.Tick(n.cfg.FlitCycle)
				p.ffScheduled = true
			}
		}
	}
	return p.ffScheduled && now >= p.ffLaunchAt
}

// windowOpen reports whether Dack flow control permits another data flit.
func (n *Network) windowOpen(now sim.Tick, vb *VirtualBus) bool {
	if n.cfg.DackWindow <= 0 {
		return true
	}
	p := &vb.progress
	rt := sim.Tick(2 * vb.Span()) // forward propagation + Dack return
	for p.dackedIdx < len(p.sendTicks) && p.sendTicks[p.dackedIdx]+rt <= now {
		p.dackedIdx++
	}
	return vb.DataSent-p.dackedIdx < n.cfg.DackWindow
}

// updateArrivals advances the destination-arrival cursor: a flit clocked
// onto the circuit at t is observed by the destination at t + span. A
// closed-form W=0 schedule (scheduleTransfer with the Dack window off)
// materializes no timetable; its launch ticks are the arithmetic
// sequence TransferStart + i·F, so the cursor advances by division.
func (n *Network) updateArrivals(now sim.Tick, vb *VirtualBus) {
	p := &vb.progress
	d := sim.Tick(vb.Span())
	if len(p.sendTicks) == 0 {
		if vb.DataSent <= p.deliveredIdx {
			return
		}
		lag := now - d - vb.TransferStart
		if lag < 0 {
			return
		}
		cnt := int(lag/sim.Tick(n.cfg.FlitCycle)) + 1
		if cnt > vb.DataSent {
			cnt = vb.DataSent
		}
		if cnt > p.deliveredIdx {
			vb.DataDelivered += cnt - p.deliveredIdx
			p.deliveredIdx = cnt
		}
		return
	}
	for p.deliveredIdx < len(p.sendTicks) && p.sendTicks[p.deliveredIdx]+d <= now {
		p.deliveredIdx++
		vb.DataDelivered++
	}
}

// deliver runs when the final flit reaches the final destination: the
// message is complete at every tap, the receive ports free, and the Fack
// teardown sweep begins.
func (n *Network) deliver(now sim.Tick, vb *VirtualBus) {
	vb.Delivered = now
	n.updateArrivals(now+sim.Tick(vb.Span()), vb) // all data preceded the FF
	n.stats.Delivered += int64(len(vb.claimedTaps))
	rec := n.record(vb.Msg)
	rec.Delivered = now
	rec.Done = true
	rec.Attempts = vb.Attempt
	n.stats.SumDeliverLatency += now - rec.Enqueued
	n.stats.SumEstablishLatency += vb.Established - rec.Enqueued
	// Every tap has the message now, so it is finished: the hooks see it
	// and its record is recycled. The bus itself lives on through the
	// Fack sweep, with vb.Delivered != 0 marking its message done.
	n.finish(vb.Msg, vb.claimedTaps)
	n.releaseTaps(vb)
	n.setState(vb, VBFackReturning)
	n.wakeCompaction(vb)
	vb.AckHop = len(vb.Levels) - 1
	n.recVBEvent(now, vb, "delivered")
}

// stepInsertion attempts one insertion per node, scanning from a rotating
// start so no node enjoys structural priority. A node may insert only
// when the top bus segment of its INC is free and its send-port budget
// allows: "a request can only be initiated if the top bus segment at that
// INC is not being used to serve another request".
func (n *Network) stepInsertion(now sim.Tick) bool {
	nodes := n.cfg.Nodes
	if !n.naive && n.pendingCount == 0 {
		// Nothing queued anywhere; only the rotation (pure bookkeeping)
		// must still advance to keep fairness identical.
		n.insertRotate++
		if n.insertRotate >= nodes {
			n.insertRotate = 0
		}
		return false
	}
	progress := false
	if n.naive {
		// Reference kernel: visit every node in rotation order.
		node := n.insertRotate
		for i := 0; i < nodes; i++ {
			if node >= nodes {
				node = 0
			}
			if n.insertTryNode(now, node) {
				progress = true
			}
			node++
		}
	} else {
		// Word-parallel scan over nodes with non-empty queues, split at
		// the rotation point so the visit order — [rotate, N) then
		// [0, rotate) — matches the reference walk exactly; insertion
		// order is observable through bus-ID assignment and the timeout
		// RNG draw. Retry requeues fire no earlier than the next tick, so
		// no pending bit is set mid-scan.
		progress = n.insertScanRange(now, n.insertRotate, nodes)
		if n.insertScanRange(now, 0, n.insertRotate) {
			progress = true
		}
	}
	n.insertRotate++
	if n.insertRotate >= nodes {
		n.insertRotate = 0
	}
	return progress
}

// insertScanRange walks pendingBits over nodes in [lo, hi), attempting
// one insertion per flagged node.
func (n *Network) insertScanRange(now sim.Tick, lo, hi int) bool {
	progress := false
	for w := lo >> 6; w<<6 < hi; w++ {
		m := maskedWord(n.pendingBits, w, lo, hi)
		for m != 0 {
			node := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if n.insertTryNode(now, node) {
				progress = true
			}
		}
	}
	return progress
}

// insertTryNode attempts to insert the head of one node's queue: the
// shared per-node body of both insertion kernels. A node may insert only
// when the top bus segment of its INC is usable and its send-port budget
// allows; a faulty top segment refuses the request into the
// randomized-backoff retry path like a Nack.
func (n *Network) insertTryNode(now sim.Tick, node int) bool {
	if len(n.pending[node]) == 0 {
		return false
	}
	k := n.cfg.Buses
	h := n.hopOf(NodeID(node))
	if n.faultyAt(h, k-1) {
		// The top segment (or the whole INC) is down: the request is
		// refused like a Nack and re-enters the randomized-backoff
		// retry path instead of spinning in the queue.
		req := n.queuePop(node)
		req.attempts++
		n.stats.FaultInsertRefusals++
		n.scheduleRequeue(now, NodeID(node), req)
		return true
	}
	// The event path gates on the packed status byte; the naive oracle
	// keeps the authoritative counter so drift shows up differentially.
	sendOK := n.incStatus[node]&incSendFull == 0
	if n.naive {
		sendOK = n.incs[node].sendActive < n.cfg.MaxSendPerNode
	}
	if sendOK && n.segFree(h, k-1) {
		req := n.queuePop(node)
		n.insert(now, NodeID(node), req)
		return true
	}
	return false
}

// insert places a header flit on the top bus segment leaving src.
func (n *Network) insert(now sim.Tick, src NodeID, req *request) {
	k := n.cfg.Buses
	n.nextVB++
	// Recycle a torn-down bus when one is parked: the struct and its
	// Levels / claimedTaps / sendTicks backing arrays are reused, and
	// every field is overwritten below.
	vb, levels, taps, ticks := n.allocVB()
	// Levels grows to exactly one entry per hop of the clockwise path, so
	// sizing it up front removes the append growth from advanceHead.
	if dist := n.Distance(src, req.msg.Dst); cap(levels) < dist {
		levels = n.carveInts(dist)
	}
	levels = append(levels, k-1)
	*vb = VirtualBus{
		ID:          n.nextVB,
		Msg:         req.msg.ID,
		Src:         src,
		Dst:         req.msg.Dst,
		Dsts:        req.dsts,
		claimedTaps: taps,
		Levels:      levels,
		State:       VBExtending,
		Head:        NodeID((int(src) + 1) % n.cfg.Nodes),
		PayloadLen:  len(req.msg.Payload),
		Inserted:    now,
		Attempt:     req.attempts + 1,
	}
	vb.progress.sendTicks = ticks
	if n.cfg.HeadTimeout > 0 {
		// Randomize in [T/2, 3T/2) so contending attempts desynchronize.
		vb.HeadLimit = n.cfg.HeadTimeout/2 + 1 + n.rng.Intn(n.cfg.HeadTimeout)
	}
	if len(req.dsts) == 1 {
		// Unicast: the destination moves into the bus's inline buffer and
		// the request (whose dsts aliases its own inline buffer) returns
		// to the freelist. Multicast keeps aliasing the request's slice,
		// which therefore must keep its identity.
		vb.dstBuf[0] = req.dsts[0]
		vb.Dsts = vb.dstBuf[:1]
		n.reqFree = append(n.reqFree, req)
	}
	n.claimSeg(n.hopOf(src), k-1, vb)
	n.incs[src].sendActive++
	n.refreshSendStatus(src)
	n.addVB(vb)
	n.stats.Insertions++
	rec := n.record(req.msg.ID)
	if rec != nil && rec.FirstInserted == 0 {
		rec.FirstInserted = now
	}
	n.recVBEvent(now, vb, "inserted")
	if vb.Head == vb.nextTarget() {
		n.reachTarget(now, vb)
	}
}
