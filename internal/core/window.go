package core

import (
	"math/bits"

	"rmb/internal/flit"
)

// DeliveryHook observes one message as it finishes: rec is its final
// record, payload its data words and taps the destinations it reached
// (one for unicast), in delivery order. payload and taps are the
// network's own storage and are reused once the hook returns, so a hook
// that keeps them must copy. Hooks run synchronously inside Step and must
// not call back into the network.
type DeliveryHook func(rec MsgRecord, payload []uint64, taps []NodeID)

// OnDeliver registers a delivery hook; hooks run in registration order.
// The network forgets a message when it finishes, so the hooks are the
// only way to see it afterwards (a History is the ready-made one). Reset
// drops every hook.
func (n *Network) OnDeliver(fn DeliveryHook) {
	n.onDeliver = append(n.onDeliver, fn)
}

// The live message window maps each ID in [recBase, nextMsg] to the pool
// entry that holds its record while it is unfinished, or to -1 once it
// has finished. recSlot is a ring buffer (length a power of two) whose
// index recHead holds recBase, so the window costs four bytes per ID it
// spans. The records themselves live in pool, and their payloads in
// pays, both indexed by entry and recycled through poolFree: they are
// bounded by the most messages ever unfinished at once.

// entry returns the pool entry of an unfinished message, or -1.
func (n *Network) entry(id flit.MessageID) int32 {
	if id < n.recBase || id > n.nextMsg {
		return -1
	}
	return n.recSlot[n.ringIndex(id)]
}

// record returns the mutable lifecycle record of an unfinished message,
// or nil for any other ID.
func (n *Network) record(id flit.MessageID) *MsgRecord {
	if e := n.entry(id); e >= 0 {
		return &n.pool[e]
	}
	return nil
}

// ringIndex is the recSlot index of a window ID.
func (n *Network) ringIndex(id flit.MessageID) int {
	return (n.recHead + int(id-n.recBase)) & (len(n.recSlot) - 1)
}

// windowLen is the number of IDs the window spans.
func (n *Network) windowLen() int { return int(n.nextMsg - n.recBase + 1) }

// admit assigns the next message ID, gives it a pool entry and copies
// payload into a buffer the entry holds until the message finishes. The
// caller fills the returned record; the words are the message's payload
// (nil if empty).
func (n *Network) admit(payload []uint64) (*MsgRecord, []uint64) {
	n.nextMsg++
	if n.windowLen() > len(n.recSlot) {
		n.growWindow(2 * len(n.recSlot))
	}
	e := n.newEntry()
	n.recSlot[n.ringIndex(n.nextMsg)] = e
	return &n.pool[e], n.entryWords(e, payload)
}

// newEntry takes a free pool entry, growing the pool when none is free.
func (n *Network) newEntry() int32 {
	if m := len(n.poolFree); m > 0 {
		e := n.poolFree[m-1]
		n.poolFree = n.poolFree[:m-1]
		return e
	}
	n.pool = append(n.pool, MsgRecord{})
	n.pays = append(n.pays, nil)
	return int32(len(n.pool) - 1)
}

// entryWords copies payload into a fresh buffer for pool entry e.
func (n *Network) entryWords(e int32, payload []uint64) []uint64 {
	c := len(payload)
	if c == 0 {
		n.pays[e] = nil
		return nil
	}
	w := n.allocWords(c)
	copy(w, payload)
	n.pays[e] = w
	return w[:c:c]
}

// Payload buffers come in power-of-two size classes up to maxPayClass;
// a finished message's buffer returns to its class's free list, so the
// words held are bounded by the most messages ever unfinished at once.
const maxPayClass = 12 // 4096 words

// payClass is the size class of a c-word buffer (c >= 1).
func payClass(c int) int { return bits.Len(uint(c - 1)) }

// allocWords returns a c-word payload buffer whose capacity is its size
// class: a recycled one, a slice of the carve arena, or, for oversized
// payloads, a dedicated allocation.
func (n *Network) allocWords(c int) []uint64 {
	k := payClass(c)
	if k > maxPayClass {
		return make([]uint64, c)
	}
	if free := n.payFree[k]; len(free) > 0 {
		buf := free[len(free)-1]
		n.payFree[k] = free[:len(free)-1]
		return buf[:c]
	}
	return n.payloadArena.carve(1 << k)[:c]
}

// wordArena carves word slices out of chunks that start small and double
// up to 16 384 words, so a ring that carries few payload words holds few.
type wordArena struct {
	free  []uint64
	chunk int
}

// carve returns c words with capacity c.
func (a *wordArena) carve(c int) []uint64 {
	if len(a.free) < c {
		a.chunk = min(max(2*a.chunk, 256), 16384)
		a.free = make([]uint64, max(c, a.chunk))
	}
	s := a.free[:c:c]
	a.free = a.free[c:]
	return s
}

// freeWords returns a payload buffer to its size class's free list.
func (n *Network) freeWords(w []uint64) {
	if len(w) == 0 {
		return
	}
	if k := payClass(len(w)); k <= maxPayClass {
		n.payFree[k] = append(n.payFree[k], w[:0])
	}
}

// growWindow re-lays the ring out at index zero with room for at least
// want IDs (rounded up to a power of two).
func (n *Network) growWindow(want int) {
	size := 1
	for size < want || size < n.windowLen() {
		size <<= 1
	}
	if size <= len(n.recSlot) {
		return
	}
	ring := make([]int32, size)
	for k := 0; k < len(n.recSlot); k++ {
		ring[k] = n.recSlot[(n.recHead+k)&(len(n.recSlot)-1)]
	}
	n.recSlot, n.recHead = ring, 0
}

// payloadOf returns an unfinished message's payload words.
func (n *Network) payloadOf(id flit.MessageID) []uint64 {
	p := n.pays[n.entry(id)]
	return p[:len(p):len(p)]
}

// finish hands a just-delivered message to the delivery hooks, recycles
// its pool entry and payload buffer, and then retires every finished ID
// at the bottom of the window.
func (n *Network) finish(id flit.MessageID, taps []NodeID) {
	i := n.ringIndex(id)
	e := n.recSlot[i]
	words := n.payloadOf(id)
	for _, fn := range n.onDeliver {
		fn(n.pool[e], words, taps)
	}
	n.freeWords(n.pays[e])
	n.pays[e] = nil
	n.poolFree = append(n.poolFree, e)
	n.recSlot[i] = -1
	for n.recBase <= n.nextMsg && n.recSlot[n.recHead] < 0 {
		n.recBase++
		n.recHead = (n.recHead + 1) & (len(n.recSlot) - 1)
	}
}

// resetWindow empties the window for a run starting from message ID 1,
// keeping the ring and the pool's capacity and returning every payload
// buffer to the free lists.
func (n *Network) resetWindow() {
	for e, w := range n.pays {
		n.freeWords(w)
		n.pays[e] = nil
	}
	n.pool = n.pool[:0]
	n.pays = n.pays[:0]
	n.poolFree = n.poolFree[:0]
	n.nextMsg = 0
	n.recBase = 1
	n.recHead = 0
	for i := range n.onDeliver {
		n.onDeliver[i] = nil
	}
	n.onDeliver = n.onDeliver[:0]
}
