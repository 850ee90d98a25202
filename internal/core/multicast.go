package core

import (
	"fmt"
	"sort"

	"rmb/internal/flit"
)

// SendMulticast enqueues one message for several destinations over a
// single virtual bus — the multicast extension the paper's introduction
// defers to future work. The circuit is drawn clockwise from src to the
// farthest destination; every intermediate destination taps the bus as
// the header passes it (the PE read interface may read from any one
// input bus, and a multicast circuit passes through the tap's INC), so
// the payload is clocked onto the ring once and observed by every tap.
//
// Acceptance is all-or-nothing: a busy receive port at any destination
// refuses the whole request (Nack, full teardown, retry later), matching
// the unicast protocol's single-header/single-ack structure.
func (n *Network) SendMulticast(src NodeID, dsts []NodeID, payload []uint64) (flit.MessageID, error) {
	if int(src) < 0 || int(src) >= n.cfg.Nodes {
		return 0, fmt.Errorf("core: source node %d outside [0,%d)", src, n.cfg.Nodes)
	}
	if len(dsts) == 0 {
		return 0, fmt.Errorf("core: multicast needs at least one destination")
	}
	seen := make(map[NodeID]bool, len(dsts))
	for _, d := range dsts {
		if int(d) < 0 || int(d) >= n.cfg.Nodes {
			return 0, fmt.Errorf("core: destination node %d outside [0,%d)", d, n.cfg.Nodes)
		}
		if d == src {
			return 0, fmt.Errorf("core: node %d cannot be a destination of its own multicast", src)
		}
		if seen[d] {
			return 0, fmt.Errorf("core: duplicate destination %d", d)
		}
		seen[d] = true
	}
	// Order destinations by clockwise distance so the header taps them as
	// it travels; the farthest becomes the circuit's final destination.
	ordered := append([]NodeID(nil), dsts...)
	sort.Slice(ordered, func(i, j int) bool {
		return n.Distance(src, ordered[i]) < n.Distance(src, ordered[j])
	})
	final := ordered[len(ordered)-1]

	rec, words := n.admit(payload)
	*rec = MsgRecord{
		ID: n.nextMsg, Src: src, Dst: final,
		Distance:   n.Distance(src, final),
		PayloadLen: len(payload),
		Fanout:     len(ordered),
		Enqueued:   n.clock.Now(),
	}
	req := n.allocReq()
	*req = request{msg: flit.Message{ID: rec.ID, Src: src, Dst: final, Payload: words}, enqueued: n.clock.Now(), dsts: ordered}
	n.queuePush(src, req)
	n.stats.MessagesSubmitted++
	n.rec.Submit(n.clock.Now(), *rec)
	return rec.ID, nil
}

// Broadcast multicasts to every other node on the ring: the circuit
// spans N-1 hops and each INC taps it in turn.
func (n *Network) Broadcast(src NodeID, payload []uint64) (flit.MessageID, error) {
	dsts := make([]NodeID, 0, n.cfg.Nodes-1)
	for i := 1; i < n.cfg.Nodes; i++ {
		dsts = append(dsts, NodeID((int(src)+i)%n.cfg.Nodes))
	}
	return n.SendMulticast(src, dsts, payload)
}
