// Broadcast: the multicast extension from the paper's introduction. One
// virtual bus spans the ring; every INC taps it as the header passes, so
// the payload is clocked onto the bus once and received everywhere —
// compared against the naive repeated-unicast approach.
package main

import (
	"fmt"
	"log"

	"rmb"
)

func main() {
	const n = 16
	payload := make([]uint64, 32)
	for i := range payload {
		payload[i] = uint64(i * i)
	}

	// One broadcast circuit.
	bc, err := rmb.New(rmb.Config{Nodes: n, Buses: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bc.Broadcast(0, payload); err != nil {
		log.Fatal(err)
	}
	if err := bc.Drain(100_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast: %d copies delivered in %v (one circuit, payload clocked once)\n",
		bc.Stats().Delivered, bc.Now())

	// The same fan-out as fifteen sequential unicasts.
	uc, err := rmb.New(rmb.Config{Nodes: n, Buses: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for d := 1; d < n; d++ {
		if _, err := uc.Send(0, rmb.NodeID(d), payload); err != nil {
			log.Fatal(err)
		}
	}
	if err := uc.Drain(500_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeated unicast: %d messages delivered in %v\n", uc.Stats().Delivered, uc.Now())
	fmt.Printf("speedup from the multicast circuit: %.1fx\n", float64(uc.Now())/float64(bc.Now()))

	// Selective multicast to a subset.
	mc, err := rmb.New(rmb.Config{Nodes: n, Buses: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	hist := rmb.NewHistory(mc) // keeps the finished multicast's record and copies
	id, err := mc.SendMulticast(2, []rmb.NodeID{5, 9, 13}, []uint64{42})
	if err != nil {
		log.Fatal(err)
	}
	if err := mc.Drain(100_000); err != nil {
		log.Fatal(err)
	}
	rec, _ := hist.Record(id)
	fmt.Printf("multicast %d: fanout %d, circuit spans %d hops, delivered to:", id, rec.Fanout, rec.Distance)
	for _, m := range hist.Delivered() {
		fmt.Printf(" %d", m.Dst)
	}
	fmt.Println()
}
