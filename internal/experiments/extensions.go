package experiments

import (
	"fmt"

	"rmb/internal/baseline/circuit"
	"rmb/internal/baseline/multibus"
	"rmb/internal/baseline/torus"
	"rmb/internal/core"
	"rmb/internal/duplex"
	"rmb/internal/grid"
	"rmb/internal/loadgen"
	"rmb/internal/metrics"
	"rmb/internal/module"
	"rmb/internal/report"
	"rmb/internal/schedule"
	"rmb/internal/sim"
	"rmb/internal/workload"
)

// Extensions returns the experiments for the future-work systems the
// paper names; they are appended to All() by init-time registration in
// registry().
func Extensions() []Experiment {
	return []Experiment{
		{"DX1", "duplex organization: two parallel unidirectional rings", DuplexStudy},
		{"MC1", "multicast over one virtual bus vs repeated unicast", MulticastStudy},
		{"GR1", "2-D grid of RMB rings vs one flat ring", GridStudy},
		{"MS1", "module-based scaling: ring of rings vs flat ring", ModuleStudy},
		{"C3", "k-ary n-cube comparison (future-work target)", TorusComparison},
		{"C4", "competitiveness on practical application patterns", CompetitiveApplications},
		{"LT1", "latency versus offered load across bus counts", LatencyThroughput},
		{"X1", "bus-count crossover against the 2-D torus", BusCrossover},
		{"MB1", "RMB vs conventional arbitrated multiple buses", MultibusComparison},
		{"FA1", "network-access fairness with and without early compaction", Fairness},
		{"DL1", "establishment gridlock without the starvation valve", Deadlock},
		{"D1", "graceful degradation under failed segments", Degradation},
	}
}

// Deadlock demonstrates DESIGN.md deviation 7: when per-hop demand
// exceeds k and the head-timeout valve is disabled, blocked headers hold
// their partial virtual buses in a cyclic wait and the ring freezes; the
// default randomized valve converts the same workload into retries that
// all complete.
func Deadlock() (string, error) {
	const N = 12
	run := func(valve bool) (delivered int64, ticks int64, frozen bool, err error) {
		timeout := 0 // default: valve armed
		if !valve {
			timeout = core.HeadTimeoutDisabled
		}
		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 2, Seed: 3, HeadTimeout: timeout})
		if err != nil {
			return 0, 0, false, err
		}
		// Antipodal shift: every hop carries N/2 = 6 demands on 2 buses.
		p := workload.RingShift(N, N/2)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), []uint64{1}); err != nil {
				return 0, 0, false, err
			}
		}
		drainErr := n.Drain(200_000)
		return n.Stats().Delivered, int64(n.Now()), drainErr != nil, nil
	}
	tb := report.NewTable("oversubscribed shift (load 6 on k=2): establishment gridlock and its cure",
		"head-timeout valve", "delivered", "ticks", "outcome")
	for _, valve := range []bool{false, true} {
		delivered, ticks, frozen, err := run(valve)
		if err != nil {
			return "", err
		}
		label := "disabled (paper's unguarded protocol)"
		outcome := "completes"
		if !valve {
			label = "disabled (paper's unguarded protocol)"
		} else {
			label = "armed (default, randomized)"
		}
		if frozen {
			outcome = "GRIDLOCK: blocked headers hold their trails in a cyclic wait"
		}
		tb.AddRowf(label, delivered, ticks, outcome)
	}
	out := tb.Render()
	out += "\nTheorem 1 is conditioned on a free segment existing; past that point the\nprotocol needs the retry discipline the paper mentions only in passing\n(\"tried again at a later time\"), which the valve operationalizes\n"
	return out, nil
}

// Fairness measures the Section 2.2 concern: restricting insertion to the
// top bus "has the potential of causing long delays for header flits and
// being unfair in providing network access to different PEs. These
// drawbacks are alleviated by allowing the compaction process to start
// even before any acknowledgement to the header is received." Under a
// continuous stream, we compare per-node insertion waits with compaction
// on and off (strict-top heads, so the top bus is the only entry path).
func Fairness() (string, error) {
	const N = 16
	run := func(disabled bool) (mean, worst, spread float64, err error) {
		n, err := core.NewNetwork(core.Config{
			Nodes: N, Buses: 3, Seed: 21,
			HeadRule: core.HeadStrictTop, DisableCompaction: disabled,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		hist := core.NewHistory(n)
		// Four back-to-back random permutations keep every send port
		// busy, so insertion opportunity is the contended resource.
		rng := sim.NewRNG(77)
		for round := 0; round < 4; round++ {
			p := workload.RandomPermutation(N, rng)
			for _, d := range p.Demands {
				if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 16)); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		if err := n.Drain(10_000_000); err != nil {
			return 0, 0, 0, err
		}
		perNode := make([]metrics.Summary, N)
		hist.EachRecord(func(r core.MsgRecord) {
			perNode[r.Src].Add(float64(r.FirstInserted - r.Enqueued))
		})
		var all metrics.Summary
		best := -1.0
		for i := range perNode {
			m := perNode[i].Mean()
			all.Add(m)
			if m > worst {
				worst = m
			}
			if best < 0 || m < best {
				best = m
			}
		}
		spread = worst - best
		return all.Mean(), worst, spread, nil
	}
	tb := report.NewTable("network-access fairness: per-node mean insertion wait (strict-top heads, streaming load)",
		"compaction", "mean wait (ticks)", "worst node", "spread (worst-best)")
	for _, disabled := range []bool{false, true} {
		mean, worst, spread, err := run(disabled)
		if err != nil {
			return "", err
		}
		label := "on (early, per the paper)"
		if disabled {
			label = "off"
		}
		tb.AddRowf(label, mean, worst, spread)
	}
	out := tb.Render()
	out += "\nearly compaction frees the top bus quickly, cutting both the average wait\nand the gap between the best- and worst-served nodes (Section 2.2)\n"
	return out, nil
}

// MultibusComparison quantifies the Section 4 remark — "an RMB with k
// buses should not be considered equivalent of a k bus system" — against
// the conventional arbitrated multiple-bus architecture of reference [5]:
// on short-distance traffic the RMB's segment reuse carries N concurrent
// circuits where the global buses carry only k.
func MultibusComparison() (string, error) {
	tb := report.NewTable("RMB vs conventional k-bus backplane (nearest-neighbour traffic, payload 16)",
		"N", "k", "system", "completion ticks", "peak concurrent transfers")
	for _, nk := range [][2]int{{16, 2}, {32, 2}, {32, 4}} {
		N, k := nk[0], nk[1]
		p := workload.NearestNeighbour(N)

		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: k, Seed: 5})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 16)); err != nil {
				return "", err
			}
		}
		if err := n.Drain(1_000_000); err != nil {
			return "", err
		}
		tb.AddRowf(N, k, "RMB (reconfigurable)", int64(n.Now()), n.Stats().PeakActiveVBs)

		mb, err := multibus.New(multibus.Config{Nodes: N, Buses: k, Payload: 16})
		if err != nil {
			return "", err
		}
		res, err := mb.Route(p, sim.NewRNG(5))
		if err != nil {
			return "", err
		}
		tb.AddRowf(N, k, "arbitrated global buses [5]", res.Ticks, res.PeakConcurrent)
	}
	out := tb.Render()
	out += "\nthe RMB carries one circuit per occupied arc, so short transfers share a\nbus level; a global bus is consumed end to end and needs a central arbiter,\nwhich reconfiguration eliminates (Section 4)\n"
	return out, nil
}

// BusCrossover sweeps the RMB's bus count to find where it matches a
// fixed 2-D torus on random-permutation completion time — "who wins
// where" in the paper's own cost class.
func BusCrossover() (string, error) {
	const N = 16
	const payload = 8
	t2, err := torus.New(4, 2, 1)
	if err != nil {
		return "", err
	}
	var torusMean metrics.Summary
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed * 41)
		p := workload.RandomPermutation(N, rng)
		rt, err := circuit.NewEngine(t2, circuit.Options{Payload: payload, Seed: seed}).Route(p, sim.NewRNG(seed))
		if err != nil {
			return "", err
		}
		torusMean.Add(float64(rt.Ticks))
	}

	rmbSeries := &metrics.Series{Name: "rmb"}
	torusSeries := &metrics.Series{Name: "torus"}
	tb := report.NewTable("RMB bus-count sweep vs a fixed 4-ary 2-cube (random permutations, payload 8)",
		"k", "RMB mean ticks", "torus mean ticks", "RMB links", "torus links")
	for k := 1; k <= 12; k++ {
		var rmbMean metrics.Summary
		for seed := uint64(1); seed <= 4; seed++ {
			rng := sim.NewRNG(seed * 41)
			p := workload.RandomPermutation(N, rng)
			n, err := core.NewNetwork(core.Config{Nodes: N, Buses: k, Seed: seed})
			if err != nil {
				return "", err
			}
			for _, d := range p.Demands {
				if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, payload)); err != nil {
					return "", err
				}
			}
			if err := n.Drain(5_000_000); err != nil {
				return "", err
			}
			rmbMean.Add(float64(n.Now()))
		}
		rmbSeries.Add(float64(k), rmbMean.Mean(), "")
		torusSeries.Add(float64(k), torusMean.Mean(), "")
		tb.AddRowf(k, rmbMean.Mean(), torusMean.Mean(), N*k, 32)
	}
	out := tb.Render()
	if x, ok := metrics.Crossover(rmbSeries, torusSeries); ok {
		out += fmt.Sprintf("\ncrossover: the RMB matches the torus at k = %.0f buses\n", x)
	} else {
		out += "\nno crossover within the sweep: the ring's N/4 mean distance dominates;\nthe RMB's case remains cost/simplicity (A1-A4), not raw latency\n"
	}
	return out, nil
}

// CompetitiveApplications measures the on-line/off-line ratio for the
// structured permutations that "emerge from practical applications" —
// the second half of the paper's proposed competitiveness study (random
// patterns are C1).
func CompetitiveApplications() (string, error) {
	const N = 16
	const payload = 8
	tb := report.NewTable("competitiveness on application communication patterns (k=4, payload 8)",
		"pattern", "messages", "ring load", "online ticks", "offline makespan", "ratio")
	patterns := []workload.Pattern{}
	if p, err := workload.BitReversal(N); err == nil {
		patterns = append(patterns, p)
	}
	if p, err := workload.Transpose(N); err == nil {
		patterns = append(patterns, p)
	}
	if p, err := workload.PerfectShuffle(N); err == nil {
		patterns = append(patterns, p)
	}
	if p, err := workload.Butterfly(N); err == nil {
		patterns = append(patterns, p)
	}
	if p, err := workload.BitComplement(N); err == nil {
		patterns = append(patterns, p)
	}
	patterns = append(patterns, workload.Tornado(N), workload.NearestNeighbour(N))
	for _, p := range patterns {
		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 4, Seed: 3})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, payload)); err != nil {
				return "", err
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			return "", err
		}
		off := schedule.Greedy(p, 4).Makespan(payload)
		ratio := 0.0
		if off > 0 {
			ratio = float64(n.Now()) / float64(off)
		}
		tb.AddRowf(p.Name, len(p.Demands), p.MaxRingLoad(), int64(n.Now()), off, ratio)
	}
	return tb.Render(), nil
}

// LatencyThroughput sweeps open-loop offered load and reports the classic
// latency-throughput curve for k = 1, 2, 4 — the saturation point scales
// with the bus count.
func LatencyThroughput() (string, error) {
	const N = 16
	tb := report.NewTable("open-loop latency vs offered load (uniform traffic, payload 4, N=16)",
		"k", "offered (msgs/node/tick)", "accepted", "mean latency", "p95 latency", "saturated")
	for _, k := range []int{1, 2, 4} {
		for _, rate := range []float64{0.0005, 0.002, 0.005, 0.01, 0.02} {
			n, err := core.NewNetwork(core.Config{Nodes: N, Buses: k, Seed: 77})
			if err != nil {
				return "", err
			}
			res, err := loadgen.Run(n, loadgen.Config{
				Rate: rate, PayloadLen: 4,
				Warmup: 300, Measure: 2500, Seed: uint64(k)*100 + uint64(rate*10000),
			})
			if err != nil {
				return "", err
			}
			tb.AddRowf(k, fmt.Sprintf("%.4f", rate), fmt.Sprintf("%.4f", res.AcceptedRate),
				fmt.Sprintf("%.1f", res.Latency.Mean()),
				fmt.Sprintf("%.0f", res.Latency.Percentile(95)),
				res.Saturated)
		}
	}
	return tb.Render(), nil
}

// DuplexStudy compares a single clockwise ring with the duplex
// organization at equal total hardware (the bus budget is split between
// directions).
func DuplexStudy() (string, error) {
	const N = 16
	tb := report.NewTable("duplex rings vs a single ring (equal total buses, random permutations, payload 8)",
		"organization", "buses", "mean completion ticks", "mean delivery latency")
	var singleTicks, singleLat, dupTicks, dupLat metrics.Summary
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 13)
		p := workload.RandomPermutation(N, rng)

		// Single clockwise ring with the full bus budget.
		s, err := core.NewNetwork(core.Config{Nodes: N, Buses: 4, Seed: seed})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := s.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 8)); err != nil {
				return "", err
			}
		}
		if err := s.Drain(2_000_000); err != nil {
			return "", err
		}
		singleTicks.Add(float64(s.Now()))
		singleLat.Add(s.Stats().MeanDeliverLatency())

		// Duplex with the same budget split 2+2 between directions.
		n, err := duplex.New(duplex.Config{Nodes: N, Buses: 4, Seed: seed})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 8)); err != nil {
				return "", err
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			return "", err
		}
		dupTicks.Add(float64(n.Now()))
		dupLat.Add(n.Stats().MeanDeliverLatency())
	}
	tb.AddRowf("single clockwise ring (k=4)", 4, singleTicks.Mean(), singleLat.Mean())
	tb.AddRowf("two parallel rings (2+2, shortest path)", 4, dupTicks.Mean(), dupLat.Mean())
	out := tb.Render()
	d, _ := duplex.New(duplex.Config{Nodes: N, Buses: 4})
	mono, _ := duplex.New(duplex.Config{Nodes: N, Buses: 4, Policy: duplex.AlwaysClockwise})
	out += fmt.Sprintf("\nmean hop distance: single ring %.2f, duplex %.2f (the Section 2.1 efficiency remark)\n",
		mono.MeanDistance(), d.MeanDistance())
	return out, nil
}

// MulticastStudy compares one multicast circuit with a sequence of
// unicasts to the same destination set.
func MulticastStudy() (string, error) {
	const N = 16
	tb := report.NewTable("multicast over one virtual bus vs repeated unicast (k=3, payload 32)",
		"fanout", "multicast ticks", "repeated unicast ticks", "speedup")
	for _, fanout := range []int{2, 4, 8} {
		dsts := make([]core.NodeID, 0, fanout)
		for i := 1; i <= fanout; i++ {
			dsts = append(dsts, core.NodeID(i*(N-1)/fanout))
		}
		mc, err := core.NewNetwork(core.Config{Nodes: N, Buses: 3, Seed: 1})
		if err != nil {
			return "", err
		}
		if _, err := mc.SendMulticast(0, dsts, make([]uint64, 32)); err != nil {
			return "", err
		}
		if err := mc.Drain(500_000); err != nil {
			return "", err
		}
		uc, err := core.NewNetwork(core.Config{Nodes: N, Buses: 3, Seed: 1})
		if err != nil {
			return "", err
		}
		for _, d := range dsts {
			if _, err := uc.Send(0, d, make([]uint64, 32)); err != nil {
				return "", err
			}
		}
		if err := uc.Drain(500_000); err != nil {
			return "", err
		}
		tb.AddRowf(fanout, int64(mc.Now()), int64(uc.Now()), float64(uc.Now())/float64(mc.Now()))
	}
	return tb.Render(), nil
}

// GridStudy compares a W×H grid of RMB rings with one flat ring of the
// same node count and per-ring bus count.
func GridStudy() (string, error) {
	tb := report.NewTable("2-D grid of RMB rings vs one flat ring (random permutations, payload 4)",
		"system", "nodes", "mean completion ticks")
	for _, side := range []int{4, 8} {
		N := side * side
		var gridTicks, ringTicks metrics.Summary
		for seed := uint64(1); seed <= 3; seed++ {
			rng := sim.NewRNG(seed * 19)
			p := workload.RandomPermutation(N, rng)

			g, err := grid.New(grid.Config{Width: side, Height: side, Buses: 2, Seed: seed})
			if err != nil {
				return "", err
			}
			for _, d := range p.Demands {
				if _, err := g.Send(d.Src, d.Dst, make([]uint64, 4)); err != nil {
					return "", err
				}
			}
			if err := g.Drain(10_000_000); err != nil {
				return "", err
			}
			gridTicks.Add(float64(g.Now()))

			r, err := core.NewNetwork(core.Config{Nodes: N, Buses: 2, Seed: seed})
			if err != nil {
				return "", err
			}
			for _, d := range p.Demands {
				if _, err := r.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 4)); err != nil {
					return "", err
				}
			}
			if err := r.Drain(10_000_000); err != nil {
				return "", err
			}
			ringTicks.Add(float64(r.Now()))
		}
		tb.AddRowf(fmt.Sprintf("%dx%d grid of rings", side, side), N, gridTicks.Mean())
		tb.AddRowf("flat ring", N, ringTicks.Mean())
	}
	// The 3-D organization at 64 nodes.
	var cubeTicks metrics.Summary
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed * 19)
		p := workload.RandomPermutation(64, rng)
		g3, err := grid.New3D(grid.Config3D{X: 4, Y: 4, Z: 4, Buses: 2, Seed: seed})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := g3.Send(d.Src, d.Dst, make([]uint64, 4)); err != nil {
				return "", err
			}
		}
		if err := g3.Drain(10_000_000); err != nil {
			return "", err
		}
		cubeTicks.Add(float64(g3.Now()))
	}
	tb.AddRowf("4x4x4 grid of rings", 64, cubeTicks.Mean())
	return tb.Render(), nil
}

// ModuleStudy compares the ring-of-rings organization with one flat ring.
func ModuleStudy() (string, error) {
	const N = 64
	tb := report.NewTable("module-based scaling (64 nodes, random permutations, payload 4)",
		"system", "mean completion ticks", "mean ring-level nacks")
	var modTicks, modNacks, flatTicks, flatNacks metrics.Summary
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed * 23)
		p := workload.RandomPermutation(N, rng)

		m, err := module.New(module.Config{Modules: 8, NodesPerModule: 8, LocalBuses: 2, TrunkBuses: 4, Seed: seed})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := m.Send(d.Src, d.Dst, make([]uint64, 4)); err != nil {
				return "", err
			}
		}
		if err := m.Drain(10_000_000); err != nil {
			return "", err
		}
		modTicks.Add(float64(m.Now()))
		modNacks.Add(float64(m.Stats().Nacks))

		r, err := core.NewNetwork(core.Config{Nodes: N, Buses: 2, Seed: seed})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := r.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 4)); err != nil {
				return "", err
			}
		}
		if err := r.Drain(10_000_000); err != nil {
			return "", err
		}
		flatTicks.Add(float64(r.Now()))
		flatNacks.Add(float64(r.Stats().Nacks))
	}
	tb.AddRowf("8 modules x 8 nodes + trunk ring", modTicks.Mean(), modNacks.Mean())
	tb.AddRowf("flat 64-node ring", flatTicks.Mean(), flatNacks.Mean())
	return tb.Render(), nil
}

// TorusComparison adds the k-ary n-cube to the completion-time study.
func TorusComparison() (string, error) {
	const N = 16
	const payload = 8
	tb := report.NewTable("k-ary n-cube vs RMB ring (random permutations, 5 seeds)",
		"architecture", "mean ticks", "links", "area")
	var ringTicks, torusTicks metrics.Summary
	t2, err := torus.New(4, 2, 2)
	if err != nil {
		return "", err
	}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 29)
		p := workload.RandomPermutation(N, rng)

		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 4, Seed: seed})
		if err != nil {
			return "", err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, payload)); err != nil {
				return "", err
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			return "", err
		}
		ringTicks.Add(float64(n.Now()))

		rt, err := circuit.NewEngine(t2, circuit.Options{Payload: payload, Seed: seed}).Route(p, sim.NewRNG(seed))
		if err != nil {
			return "", err
		}
		torusTicks.Add(float64(rt.Ticks))
	}
	links, _, area, _ := t2.Costs()
	tb.AddRowf("RMB ring (k=4)", ringTicks.Mean(), float64(16*4), float64(16*4))
	tb.AddRowf("4-ary 2-cube (cap 2)", torusTicks.Mean(), links, area)
	out := tb.Render()
	out += "\nthe 2-D torus is the paper's named future comparison target: same Θ(N·k)\narea class as the RMB but with log-free Θ(√N) diameter; the RMB answers\nwith simpler (ring) routing and unit-length wires\n"
	return out, nil
}
