package rmb_test

import (
	"fmt"

	"rmb"
)

// The smallest end-to-end use: build a ring, send a message, drain.
func ExampleNew() {
	net, err := rmb.New(rmb.Config{Nodes: 8, Buses: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	hist := rmb.NewHistory(net)
	if _, err := net.Send(0, 5, []uint64{100, 200}); err != nil {
		panic(err)
	}
	if err := net.Drain(10_000); err != nil {
		panic(err)
	}
	for _, m := range hist.Delivered() {
		fmt.Printf("%d -> %d: %v\n", m.Src, m.Dst, m.Payload)
	}
	// Output:
	// 0 -> 5: [100 200]
}

// Routing a full permutation and comparing against the off-line schedule.
func ExampleRunPattern() {
	net, err := rmb.New(rmb.Config{Nodes: 8, Buses: 2, Seed: 3})
	if err != nil {
		panic(err)
	}
	p := rmb.RingShift(8, 2) // node i sends to i+2; ring load exactly 2
	res, err := rmb.RunPattern(net, p, 4, 100_000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %d messages\n", res.Stats.Delivered)
	fmt.Printf("feasible on k=2: load %d\n", p.MaxRingLoad())
	// Output:
	// delivered 8 messages
	// feasible on k=2: load 2
}

// The Section 3.2 structural comparison at one design point.
func ExampleCompareArchitectures() {
	for _, c := range rmb.CompareArchitectures(256, 8)[:2] {
		fmt.Printf("%s: %.0f links, area %.0f\n", c.Arch, c.Links, c.Area)
	}
	// Output:
	// RMB (ring, k buses): 2048 links, area 2048
	// hypercube: 2048 links, area 65536
}

// Broadcasting over a single virtual bus.
func ExampleNetwork_broadcast() {
	net, err := rmb.New(rmb.Config{Nodes: 6, Buses: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	hist := rmb.NewHistory(net)
	if _, err := net.Broadcast(0, []uint64{7}); err != nil {
		panic(err)
	}
	if err := net.Drain(10_000); err != nil {
		panic(err)
	}
	fmt.Printf("copies delivered: %d\n", len(hist.Delivered()))
	// Output:
	// copies delivered: 5
}

// The duplex (two parallel unidirectional rings) organization.
func ExampleNewDuplex() {
	net, err := rmb.NewDuplex(rmb.DuplexConfig{Nodes: 12, Buses: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	h, err := net.Send(0, 11, []uint64{1}) // one hop counter-clockwise
	if err != nil {
		panic(err)
	}
	if err := net.Drain(10_000); err != nil {
		panic(err)
	}
	fmt.Printf("direction: %v\n", h.Dir)
	// Output:
	// direction: counter-clockwise
}
