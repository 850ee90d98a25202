package async

import (
	"errors"
	"fmt"
	"time"

	"rmb/internal/flit"
)

// inc is one interconnection network controller goroutine. All of its
// state is owned by the run loop; feeder goroutines only move frames from
// segment channels into the serialized inbox.
type inc struct {
	net *Network
	id  int

	inbox chan event

	// inputs are the segments arriving from the left neighbour (hop
	// id-1); outputs the segments leaving toward the right (hop id).
	inputs, outputs []segment

	// conn maps a connected input line to its output line; rconn maps an
	// output line back to its source input line, or localSource for lines
	// driven by this node's PE.
	conn  map[int]int
	rconn map[int]int

	// held are header flits waiting for a free legal output line.
	held []heldHeader

	// tick is the INC's logical clock: it advances only when an evTick
	// event is drained from the inbox, so every time-based decision
	// (held-header expiry) is replayable by injecting ticks in tests.
	tick uint64

	// recvLine is the input line currently delivering to the local PE
	// (-1 when the receive port is free); recvFlits accumulates the
	// message.
	recvLine  int
	recvFlits []flit.Flit
	// parkedFinal is a final flit the holdReceive test hook is keeping
	// unprocessed, so the receive port stays busy; nil otherwise.
	parkedFinal *flit.Flit

	// sendQueue holds local messages; sendActive is the one in flight.
	sendQueue  []*localSend
	sendActive *localSend
}

// localSource marks an output line driven by the local PE in rconn.
const localSource = -1

type heldHeader struct {
	line  int
	frame []byte
	// tick is the INC's logical tick at which the header was parked.
	tick uint64
}

// heldExpiryTicks is how many logical ticks a held header may wait before
// the INC refuses it with a Nack. Ticks arrive every HeadTimeout/2, so
// two ticks approximate the configured HeadTimeout without ever reading
// the wall clock into protocol state.
const heldExpiryTicks = 2

func newINC(n *Network, id int) *inc {
	left := (id - 1 + n.cfg.Nodes) % n.cfg.Nodes
	return &inc{
		net:      n,
		id:       id,
		inbox:    make(chan event, 1024),
		inputs:   n.segs[left],
		outputs:  n.segs[id],
		conn:     make(map[int]int),
		rconn:    make(map[int]int),
		recvLine: -1,
	}
}

// start launches the run loop and its feeder goroutines.
func (c *inc) start() {
	for l := range c.inputs {
		c.net.wg.Add(1)
		go c.feed(c.inputs[l].fwd, event{kind: evFlit, line: l})
	}
	for l := range c.outputs {
		c.net.wg.Add(1)
		go c.feed(c.outputs[l].back, event{kind: evAck, line: l})
	}
	c.net.wg.Add(1)
	go c.tickLoop()
	c.net.wg.Add(1)
	go c.run()
}

// tickLoop feeds evTick events into the inbox every HeadTimeout/2. The
// run loop never touches the wall clock itself: real time enters the INC
// only as serialized tick events, keeping all protocol decisions a pure
// function of the inbox sequence.
func (c *inc) tickLoop() {
	defer c.net.wg.Done()
	t := time.NewTicker(c.net.cfg.HeadTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			select {
			case c.inbox <- event{kind: evTick}:
			case <-c.net.done:
				return
			}
		case <-c.net.done:
			return
		}
	}
}

// feed moves frames from one channel into the inbox until shutdown.
func (c *inc) feed(ch <-chan []byte, template event) {
	defer c.net.wg.Done()
	for {
		select {
		case frame := <-ch:
			ev := template
			ev.data = frame
			select {
			case c.inbox <- ev:
			case <-c.net.done:
				return
			}
		case <-c.net.done:
			return
		}
	}
}

// run is the INC's serialized event loop.
func (c *inc) run() {
	defer c.net.wg.Done()
	for {
		select {
		case ev := <-c.inbox:
			switch ev.kind {
			case evFlit:
				c.onFlit(ev.line, ev.data)
			case evAck:
				c.onAck(ev.line, ev.data)
			case evSend:
				c.sendQueue = append(c.sendQueue, ev.req)
				c.tryInsert()
			case evTick:
				c.onTick()
			default:
				panic(fmt.Sprintf("async: inc%d unknown event kind %d", c.id, ev.kind))
			}
		case <-c.net.done:
			return
		}
	}
}

// onTick advances the logical clock and runs the time-driven duties:
// expiring stale held headers, retrying the rest, and reattempting local
// insertion.
func (c *inc) onTick() {
	c.tick++
	if c.parkedFinal != nil && !c.net.holdReceive(c.id) {
		f := *c.parkedFinal
		c.parkedFinal = nil
		c.completeReceive(f)
	}
	c.expireHeld()
	c.retryHeld()
	c.tryInsert()
}

// submit enqueues a locally originated message onto the serialized inbox;
// it reports failure once the network is stopped. This is the only door
// into the INC for other goroutines — all inc fields stay owned by the
// run loop.
func (c *inc) submit(m flit.Message) error {
	select {
	case c.inbox <- event{kind: evSend, req: &localSend{msg: m, outLine: -1}}:
		return nil
	case <-c.net.done:
		return errors.New("async: network stopped")
	}
}

// send pushes a frame to a channel, abandoning it on shutdown.
func (c *inc) send(ch chan<- []byte, frame []byte) {
	select {
	case ch <- frame:
	case <-c.net.done:
	}
}

// sendBack answers counter-clockwise on an input line.
func (c *inc) sendBack(line int, s flit.AckSignal) {
	c.send(c.inputs[line].back, flit.EncodeAck(s))
}

// onFlit handles one clockwise frame arriving on input line.
func (c *inc) onFlit(line int, frame []byte) {
	f, _, err := flit.DecodeFlit(frame)
	if err != nil {
		panic(fmt.Sprintf("async: inc%d line %d: %v", c.id, line, err))
	}
	if f.Kind == flit.Header {
		c.onHeader(line, f, frame)
		return
	}
	// Data and final flits follow an established connection.
	if c.recvLine == line && int(f.Dst) == c.id {
		c.onLocalFlit(line, f)
		return
	}
	out, ok := c.conn[line]
	if !ok {
		panic(fmt.Sprintf("async: inc%d received %v on unconnected line %d", c.id, f, line))
	}
	c.net.ctr.flitsForwarded.Add(1)
	c.send(c.outputs[out].fwd, frame)
}

// onHeader accepts, forwards or holds a header flit.
func (c *inc) onHeader(line int, f flit.Flit, frame []byte) {
	if int(f.Dst) == c.id {
		// "The INC at the destination node will accept the request if the
		// INC and PE receive ports at that node are both free."
		if c.recvLine == -1 {
			c.recvLine = line
			c.recvFlits = c.recvFlits[:0]
			c.recvFlits = append(c.recvFlits, f)
			c.sendBack(line, flit.AckSignal{Ack: flit.Hack, Msg: f.Msg})
		} else {
			c.net.ctr.nacksSent.Add(1)
			c.sendBack(line, flit.AckSignal{Ack: flit.Nack, Msg: f.Msg})
		}
		return
	}
	if c.forwardHeader(line, frame) {
		return
	}
	c.net.ctr.headersHeld.Add(1)
	c.held = append(c.held, heldHeader{line: line, frame: frame, tick: c.tick})
}

// forwardHeader connects input line to the lowest free legal output line
// and forwards the header; it reports success.
func (c *inc) forwardHeader(line int, frame []byte) bool {
	for _, out := range []int{line - 1, line, line + 1} {
		if out < 0 || out >= c.net.cfg.Buses {
			continue
		}
		if _, used := c.rconn[out]; used {
			continue
		}
		c.conn[line] = out
		c.rconn[out] = line
		c.net.ctr.headersForwarded.Add(1)
		c.send(c.outputs[out].fwd, frame)
		return true
	}
	return false
}

// onLocalFlit accumulates a message being received by the local PE.
func (c *inc) onLocalFlit(line int, f flit.Flit) {
	c.recvFlits = append(c.recvFlits, f)
	switch f.Kind {
	case flit.Header:
		// onFlit routes headers to onHeader; one arriving here means the
		// source violated HF/DF/FF sequencing.
		panic(fmt.Sprintf("async: inc%d received second header %v on open receive line %d", c.id, f, line))
	case flit.Data:
		c.sendBack(line, flit.AckSignal{Ack: flit.Dack, Msg: f.Msg, Seq: f.Seq})
	case flit.Final:
		if c.net.holdReceive != nil && c.net.holdReceive(c.id) {
			c.parkedFinal = &f
			return
		}
		c.completeReceive(f)
	}
}

// completeReceive finishes the message on the receive line once its
// final flit has arrived: Fack upstream, free the port, deliver.
func (c *inc) completeReceive(f flit.Flit) {
	m, err := flit.Reassemble(c.recvFlits)
	if err != nil {
		panic(fmt.Sprintf("async: inc%d reassembly: %v", c.id, err))
	}
	c.sendBack(c.recvLine, flit.AckSignal{Ack: flit.Fack, Msg: f.Msg})
	c.recvLine = -1
	c.net.ctr.delivered.Add(1)
	select {
	case c.net.deliveries <- m:
	case <-c.net.done:
	}
}

// onAck handles one counter-clockwise frame arriving from output line.
func (c *inc) onAck(line int, frame []byte) {
	s, _, err := flit.DecodeAck(frame)
	if err != nil {
		panic(fmt.Sprintf("async: inc%d ack line %d: %v", c.id, line, err))
	}
	src, ok := c.rconn[line]
	if !ok {
		panic(fmt.Sprintf("async: inc%d ack %v on unconnected output %d", c.id, s, line))
	}
	if src == localSource {
		c.onLocalAck(line, s)
		return
	}
	// Forward upstream; Fack and Nack free this INC's ports as they
	// pass: "a Fack signal is used by all intermediate INCs to free a
	// port being used by that virtual bus connection".
	c.send(c.inputs[src].back, frame)
	if s.Ack == flit.Fack || s.Ack == flit.Nack {
		delete(c.conn, src)
		delete(c.rconn, line)
		c.retryHeld()
	}
}

// onLocalAck advances the local send state machine.
func (c *inc) onLocalAck(line int, s flit.AckSignal) {
	ls := c.sendActive
	if ls == nil || ls.outLine != line {
		panic(fmt.Sprintf("async: inc%d local ack %v with no matching send", c.id, s))
	}
	switch s.Ack {
	case flit.Hack:
		// "Data flits are only transmitted after an acknowledgement is
		// received for the HF from the destination."
		ls.accepted = true
		c.pumpData(ls)
	case flit.Dack:
		c.pumpData(ls)
	case flit.Fack:
		delete(c.rconn, line)
		c.sendActive = nil
		c.tryInsert()
	case flit.Nack:
		delete(c.rconn, line)
		c.sendActive = nil
		c.retryLocal(ls)
		c.tryInsert()
	}
}

// pumpData sends the next data flit (Dack-paced, window 1) or the final
// flit once the payload is exhausted.
func (c *inc) pumpData(ls *localSend) {
	out := c.outputs[ls.outLine].fwd
	m := ls.msg
	if ls.nextData < len(m.Payload) {
		f := flit.Flit{
			Kind: flit.Data, Msg: m.ID, Src: m.Src, Dst: m.Dst,
			Seq: uint32(ls.nextData), Payload: m.Payload[ls.nextData],
		}
		ls.nextData++
		c.send(out, flit.EncodeFlit(f))
		return
	}
	if ls.nextData == len(m.Payload) {
		ls.nextData++ // final flit sent exactly once
		f := flit.Flit{Kind: flit.Final, Msg: m.ID, Src: m.Src, Dst: m.Dst, Seq: uint32(len(m.Payload))}
		c.send(out, flit.EncodeFlit(f))
	}
}

// retryLocal schedules a refused message for reinsertion with
// exponential backoff, or reports failure past MaxAttempts.
func (c *inc) retryLocal(ls *localSend) {
	if ls.attempts >= c.net.cfg.MaxAttempts {
		select {
		case c.net.failures <- ls.msg:
		case <-c.net.done:
		}
		return
	}
	c.net.ctr.retries.Add(1)
	backoff := c.net.cfg.RetryBase << uint(min(ls.attempts, 4))
	ls.outLine = -1
	ls.accepted = false
	ls.nextData = 0
	timer := time.AfterFunc(backoff, func() {
		select {
		case c.inbox <- event{kind: evSend, req: ls}:
		case <-c.net.done:
		}
	})
	_ = timer
}

// tryInsert starts the next queued local message if the send port and the
// top output line are free: "new channels of communication are introduced
// only at [the] top bus".
func (c *inc) tryInsert() {
	if c.sendActive != nil || len(c.sendQueue) == 0 {
		return
	}
	top := c.net.cfg.Buses - 1
	if _, used := c.rconn[top]; used {
		return
	}
	ls := c.sendQueue[0]
	c.sendQueue = c.sendQueue[1:]
	ls.attempts++
	ls.outLine = top
	c.rconn[top] = localSource
	c.sendActive = ls
	hf := flit.Flit{Kind: flit.Header, Msg: ls.msg.ID, Src: ls.msg.Src, Dst: ls.msg.Dst}
	c.send(c.outputs[top].fwd, flit.EncodeFlit(hf))
}

// retryHeld re-attempts forwarding for held headers after a line freed.
func (c *inc) retryHeld() {
	kept := c.held[:0]
	for _, h := range c.held {
		if !c.forwardHeader(h.line, h.frame) {
			kept = append(kept, h)
		}
	}
	c.held = kept
}

// expireHeld refuses headers that have been blocked past the logical-tick
// timeout, releasing their upstream trails with a Nack.
func (c *inc) expireHeld() {
	kept := c.held[:0]
	for _, h := range c.held {
		if c.tick-h.tick >= heldExpiryTicks {
			f, _, err := flit.DecodeFlit(h.frame)
			if err == nil {
				c.net.ctr.headersExpired.Add(1)
				c.sendBack(h.line, flit.AckSignal{Ack: flit.Nack, Msg: f.Msg})
			}
			continue
		}
		kept = append(kept, h)
	}
	c.held = kept
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
