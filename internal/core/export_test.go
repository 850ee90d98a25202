package core

// WindowStorage reports what the live message window holds for the
// retained-state test in package core_test: the ring's ID slots, the
// record pool's entries, and the payload words its live buffers, free
// lists and carve arena pin.
func WindowStorage(n *Network) (slots, records, words int) {
	for _, p := range n.pays {
		words += cap(p)
	}
	for _, free := range n.payFree {
		for _, p := range free {
			words += cap(p)
		}
	}
	return len(n.recSlot), cap(n.pool), words + len(n.payloadArena.free)
}
