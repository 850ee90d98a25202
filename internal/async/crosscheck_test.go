package async

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"rmb/internal/core"
	"rmb/internal/flit"
	"rmb/internal/sim"
	"rmb/internal/workload"
)

// fingerprint canonicalizes a delivered message set for comparison:
// src->dst plus payload, sorted.
func fingerprint(msgs []flit.Message) []string {
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, fmt.Sprintf("%d->%d:%v", m.Src, m.Dst, m.Payload))
	}
	sort.Strings(out)
	return out
}

// TestCrossImplementationAgreement routes identical workloads through the
// cycle-stepped simulator and the goroutine/channel implementation and
// requires the delivered message sets to agree exactly (IDs and timing
// differ by design; content and endpoints may not).
func TestCrossImplementationAgreement(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		buses int
		build func(n int, rng *sim.RNG) workload.Pattern
	}{
		{"random-permutation", 12, 3, func(n int, rng *sim.RNG) workload.Pattern {
			return workload.RandomPermutation(n, rng)
		}},
		{"ring-shift", 10, 2, func(n int, rng *sim.RNG) workload.Pattern {
			return workload.RingShift(n, 3)
		}},
		{"h-permutation", 14, 2, func(n int, rng *sim.RNG) workload.Pattern {
			return workload.RandomHPermutation(n, 6, rng)
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := sim.NewRNG(42)
			p := c.build(c.nodes, rng)
			payloadFor := func(d workload.Demand) []uint64 {
				return []uint64{uint64(d.Src)<<16 | uint64(d.Dst), uint64(d.Src * 7)}
			}

			// Cycle-stepped run.
			cyc, err := core.NewNetwork(core.Config{Nodes: c.nodes, Buses: c.buses, Seed: 1, Audit: true})
			if err != nil {
				t.Fatal(err)
			}
			cycHist := core.NewHistory(cyc)
			for _, d := range p.Demands {
				if _, err := cyc.Send(core.NodeID(d.Src), core.NodeID(d.Dst), payloadFor(d)); err != nil {
					t.Fatal(err)
				}
			}
			if err := cyc.Drain(2_000_000); err != nil {
				t.Fatal(err)
			}

			// Goroutine/channel run.
			asy, err := New(Config{Nodes: c.nodes, Buses: c.buses})
			if err != nil {
				t.Fatal(err)
			}
			defer asy.Stop()
			var demands []Demand
			for _, d := range p.Demands {
				demands = append(demands, Demand{
					Src: flit.NodeID(d.Src), Dst: flit.NodeID(d.Dst),
					Payload: payloadFor(d),
				})
			}
			got, err := asy.SendAndAwait(demands, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}

			a := fingerprint(cycHist.Delivered())
			b := fingerprint(got)
			if len(a) != len(b) {
				t.Fatalf("delivered counts differ: cycle %d, async %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("delivered sets differ at %d:\n cycle: %s\n async: %s", i, a[i], b[i])
				}
			}
		})
	}
}

// TestCrossImplementationContention repeats the agreement check under
// receiver contention, where the async side exercises its Nack/retry
// path with real timers.
func TestCrossImplementationContention(t *testing.T) {
	const N = 8
	var demands []Demand
	var coreDemands []workload.Demand
	for s := 1; s < N; s++ {
		demands = append(demands, Demand{Src: flit.NodeID(s), Dst: 0, Payload: []uint64{uint64(s)}})
		coreDemands = append(coreDemands, workload.Demand{Src: s, Dst: 0})
	}

	cyc, err := core.NewNetwork(core.Config{Nodes: N, Buses: 2, Seed: 2, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	cycHist := core.NewHistory(cyc)
	for _, d := range coreDemands {
		if _, err := cyc.Send(core.NodeID(d.Src), 0, []uint64{uint64(d.Src)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cyc.Drain(2_000_000); err != nil {
		t.Fatal(err)
	}

	asy, err := New(Config{Nodes: N, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer asy.Stop()
	got, err := asy.SendAndAwait(demands, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	a := fingerprint(cycHist.Delivered())
	b := fingerprint(got)
	if len(a) != len(b) {
		t.Fatalf("delivered counts differ: cycle %d, async %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivered sets differ: %s vs %s", a[i], b[i])
		}
	}
}
