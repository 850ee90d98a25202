package core_test

import (
	"fmt"

	"rmb/internal/core"
)

// A minimal simulation: one message across a small ring.
func ExampleNetwork_Send() {
	n, err := core.NewNetwork(core.Config{Nodes: 8, Buses: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	hist := core.NewHistory(n) // keeps delivered messages once the ring forgets them
	if _, err := n.Send(0, 5, []uint64{42}); err != nil {
		panic(err)
	}
	if err := n.Drain(10_000); err != nil {
		panic(err)
	}
	m := hist.Delivered()[0]
	fmt.Printf("%d -> %d carried %v\n", m.Src, m.Dst, m.Payload)
	// Output:
	// 0 -> 5 carried [42]
}

// The Table 1 status-register vocabulary.
func ExampleTable1() {
	for _, row := range core.Table1()[:3] {
		fmt.Printf("%s  %s\n", row.Bits, row.Interpretation)
	}
	// Output:
	// 000  bus is unused
	// 001  port receives from below
	// 010  port receives straight
}

// The four Figure 7 switchable-down conditions, straight from the
// compaction implementation.
func ExampleFourConditions() {
	c := core.FourConditions()[1] // a = b, c = b-1
	fmt.Println(c.Name)
	fmt.Println(c.Downstream)
	// Output:
	// a=b+0, c=b-1
	// 100 -> 110 -> 010
}

// Broadcasting over a single virtual bus that every INC taps.
func ExampleNetwork_Broadcast() {
	n, err := core.NewNetwork(core.Config{Nodes: 6, Buses: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	hist := core.NewHistory(n)
	if _, err := n.Broadcast(0, []uint64{7}); err != nil {
		panic(err)
	}
	if err := n.Drain(10_000); err != nil {
		panic(err)
	}
	fmt.Println("copies:", len(hist.Delivered()))
	// Output:
	// copies: 5
}
