package core

import (
	"slices"

	"rmb/internal/flit"
)

// History keeps every message a network finishes, for readers that want
// a run's whole record — experiments, reports, Gantt charts, the
// multi-ring compositions and the public API. It is the one place
// finished records are stored: the network itself forgets a message when
// it finishes, so a run without a History costs memory in proportion to
// the live ring, not to its length.
//
// A History sees the messages that finish after it is attached; attach
// it right after NewNetwork (or after Reset, which drops every hook) to
// see the whole run. Messages that finished before a checkpoint are not
// in the checkpoint, so a History on a restored network starts at the
// restore.
type History struct {
	n *Network
	// recs[id-1] is message id's final record once it finished; the ID
	// field is zero until then.
	recs      []MsgRecord
	delivered []flit.Message
	// words carves the payload copies the delivered log holds.
	words wordArena
}

// NewHistory attaches a history to n through its delivery hook.
func NewHistory(n *Network) *History {
	h := &History{n: n}
	n.OnDeliver(h.add)
	return h
}

// add is the delivery hook: it stores the final record and one delivered
// message per tap, whose payload is a copy shared by the taps.
func (h *History) add(rec MsgRecord, payload []uint64, taps []NodeID) {
	if need := int(rec.ID) - len(h.recs); need > 0 {
		h.recs = slices.Grow(h.recs, need)[:rec.ID]
	}
	h.recs[rec.ID-1] = rec
	var words []uint64
	if len(payload) > 0 {
		words = h.words.carve(len(payload))
		copy(words, payload)
	}
	for _, tap := range taps {
		h.delivered = append(h.delivered, flit.Message{ID: rec.ID, Src: rec.Src, Dst: tap, Payload: words})
	}
}

// Delivered returns a copy of the messages delivered so far, in delivery
// order, one per tap of a multicast.
func (h *History) Delivered() []flit.Message { return h.DeliveredSince(0) }

// DeliveredSince returns a copy of the deliveries after the first i, so
// a caller polling every tick copies only what is new.
func (h *History) DeliveredSince(i int) []flit.Message {
	return append([]flit.Message(nil), h.delivered[i:]...)
}

// Record returns one message's lifecycle record: its final record once
// finished, its live one from the network until then.
func (h *History) Record(id flit.MessageID) (MsgRecord, bool) {
	if id >= 1 && int(id) <= len(h.recs) && h.recs[id-1].ID == id {
		return h.recs[id-1], true
	}
	return h.n.Record(id)
}

// EachRecord visits every known message record in ascending message-ID
// order — finished ones from the history, unfinished ones from the
// network — without building the copy Records returns.
func (h *History) EachRecord(fn func(MsgRecord)) {
	for id := flit.MessageID(1); id <= h.n.nextMsg; id++ {
		if r, ok := h.Record(id); ok {
			fn(r)
		}
	}
}

// Records returns the records EachRecord visits, keyed by message ID.
func (h *History) Records() map[flit.MessageID]MsgRecord {
	out := make(map[flit.MessageID]MsgRecord, h.n.nextMsg)
	h.EachRecord(func(r MsgRecord) { out[r.ID] = r })
	return out
}
