// Quickstart: build an RMB network, send one message across the ring,
// and inspect its lifecycle — the smallest end-to-end use of the public
// API.
package main

import (
	"fmt"
	"log"

	"rmb"
)

func main() {
	// A ring of 8 nodes joined by 3 parallel bus segments per hop.
	net, err := rmb.New(rmb.Config{Nodes: 8, Buses: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// The ring forgets a message once it is delivered; a History keeps
	// the delivered messages and their lifecycle records.
	hist := rmb.NewHistory(net)

	// Node 0 sends three data words to node 5. The header flit enters on
	// the top bus, draws a virtual bus clockwise, and the circuit carries
	// the payload after the destination's Hack returns.
	id, err := net.Send(0, 5, []uint64{100, 200, 300})
	if err != nil {
		log.Fatal(err)
	}

	// Run the simulation until everything delivered.
	if err := net.Drain(10_000); err != nil {
		log.Fatal(err)
	}

	for _, m := range hist.Delivered() {
		fmt.Printf("delivered message %d: %d -> %d, payload %v\n", m.ID, m.Src, m.Dst, m.Payload)
	}

	rec, _ := hist.Record(id)
	fmt.Printf("inserted at %v, circuit established at %v, delivered at %v (%d attempt(s))\n",
		rec.FirstInserted, rec.Established, rec.Delivered, rec.Attempts)

	st := net.Stats()
	fmt.Printf("compaction performed %d downward moves over %d odd/even cycles\n",
		st.CompactionMoves, net.GlobalCycle())
}
