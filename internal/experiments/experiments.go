// Package experiments regenerates every table and figure of the paper
// (plus the lemma/theorem demonstrations, the Section 3.2 analysis, and
// the extension studies listed in DESIGN.md) as printable artifacts. The
// cmd/rmbbench binary prints them; the root bench_test.go measures them.
// EXPERIMENTS.md records paper-vs-measured for each identifier.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rmb/internal/analysis"
	"rmb/internal/baseline/circuit"
	"rmb/internal/baseline/fattree"
	"rmb/internal/baseline/hypercube"
	"rmb/internal/baseline/mesh"
	"rmb/internal/core"
	"rmb/internal/metrics"
	"rmb/internal/parallel"
	"rmb/internal/report"
	"rmb/internal/schedule"
	"rmb/internal/sim"
	"rmb/internal/trace"
	"rmb/internal/workload"
)

// Experiment is one regenerable artifact.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md ("T1", "F5", ...).
	ID string
	// Title describes the paper artifact it regenerates.
	Title string
	// Run produces the printable artifact.
	Run func() (string, error)
}

// All returns every experiment in DESIGN.md order: the paper's tables,
// figures, lemma/theorem demonstrations, Section 3.2 analysis and
// capability studies, followed by the future-work extension studies.
func All() []Experiment {
	return append(base(), Extensions()...)
}

func base() []Experiment {
	return []Experiment{
		{"T1", "Table 1: INC output-port status codes", Table1},
		{"T2", "Table 2: odd/even cycle states and signals", Table2},
		{"F1", "Figure 1: a multiple bus system", Figure1},
		{"F2", "Figure 2: physical bus segments and virtual buses", Figure2},
		{"F3", "Figure 3: compaction releases the top bus", Figure3},
		{"F4", "Figure 4: make-before-break connection strategy", Figure4},
		{"F5", "Figure 5: moving an entire virtual bus in two cycles", Figure5},
		{"F6", "Figure 6: INC input/output port mapping", Figure6},
		{"F7", "Figure 7: four conditions for transitions", Figure7},
		{"F8", "Figure 8: odd/even cycle segment pairing", Figure8},
		{"F9", "Figure 9: the four switching states of each INC", Figure9},
		{"F10", "Figure 10: odd/even switch state transitions", Figure10},
		{"F11", "Figure 11: a fat tree supporting k-permutation", Figure11},
		{"L1", "Lemma 1: neighbouring cycle counts differ by at most one", Lemma1},
		{"TH1", "Theorem 1: full utilization of the RMB", Theorem1},
		{"A1", "Section 3.2: number of links", AnalysisLinks},
		{"A2", "Section 3.2: number of cross points", AnalysisCrossPoints},
		{"A3", "Section 3.2: VLSI layout area", AnalysisArea},
		{"A4", "Section 3.2: bisection bandwidth", AnalysisBisection},
		{"P1", "k-permutation support across k", KPermutationSupport},
		{"P2", "an RMB with k buses carries more than k virtual buses", ManyShortVirtualBuses},
		{"C1", "competitiveness of on-line routing vs off-line schedule", CompetitiveRatio},
		{"C2", "permutation completion time: RMB vs baselines", ArchComparison},
		{"AB1", "ablation: compaction on/off", AblationCompaction},
		{"AB2", "ablation: header advance rule", AblationHeadRule},
		{"AB3", "ablation: Dack window / transfer timing", AblationTransferModel},
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 regenerates the paper's Table 1 from the status-register
// implementation.
func Table1() (string, error) {
	tb := report.NewTable("Table 1: interconnections between input and output ports of an INC (viewed from the output port)",
		"code", "interpretation", "legal", "transient")
	for _, r := range core.Table1() {
		tb.AddRowf(r.Bits, r.Interpretation, r.Legal, r.Transient)
	}
	return tb.Render(), nil
}

// Table2 regenerates the paper's Table 2 from the cycle FSM.
func Table2() (string, error) {
	tb := report.NewTable("Table 2: states/signals used in odd-even cycle control",
		"mnemonic", "kind", "interpretation")
	for _, r := range core.Table2() {
		tb.AddRowf(r.Mnemonic, r.Kind, r.Interpretation)
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	b.WriteString("\ncontrol rules:\n")
	for _, r := range core.Rules() {
		fmt.Fprintf(&b, "  rule %d: %s\n", r.Number, r.Text)
	}
	return b.String(), nil
}

// Figure1 renders the N-node k-bus ring.
func Figure1() (string, error) {
	return trace.Figure1(16, 4), nil
}

// Figure2 runs live traffic and renders physical occupancy next to the
// virtual-bus view.
func Figure2() (string, error) {
	n, err := core.NewNetwork(core.Config{Nodes: 12, Buses: 4, Seed: 2})
	if err != nil {
		return "", err
	}
	sends := [][2]core.NodeID{{0, 5}, {2, 8}, {6, 11}, {9, 3}}
	for _, s := range sends {
		if _, err := n.Send(s[0], s[1], make([]uint64, 200)); err != nil {
			return "", err
		}
	}
	for i := 0; i < 25; i++ {
		n.Step()
	}
	s := n.Snapshot()
	var b strings.Builder
	b.WriteString("Figure 2: physical bus segments and virtual buses\n\n")
	b.WriteString(trace.RenderOccupancy(s))
	b.WriteByte('\n')
	b.WriteString(trace.RenderVirtualBuses(s))
	return b.String(), nil
}

// Figure3 demonstrates compaction freeing the top bus: frames before and
// after the background compaction of one long circuit.
func Figure3() (string, error) {
	n, err := core.NewNetwork(core.Config{Nodes: 10, Buses: 3, Seed: 1})
	if err != nil {
		return "", err
	}
	if _, err := n.Send(0, 6, make([]uint64, 300)); err != nil {
		return "", err
	}
	var tl trace.Timeline
	for i := 0; i < 14; i++ {
		n.Step()
		if i == 6 || i == 13 {
			tl.Capture(n)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 3: buses and the compaction process — the request drew its virtual\nbus at the top; compaction sinks it so the top segments free up\n\n")
	b.WriteString(tl.Render())
	return b.String(), nil
}

// Figure4 renders one real make-before-break move recorded from the
// compaction engine.
func Figure4() (string, error) {
	n, err := core.NewNetwork(core.Config{Nodes: 10, Buses: 3, Seed: 1})
	if err != nil {
		return "", err
	}
	log := trace.NewLog(0)
	n.SetRecorder(log)
	if _, err := n.Send(0, 6, make([]uint64, 100)); err != nil {
		return "", err
	}
	for i := 0; i < 20 && len(log.Moves) == 0; i++ {
		n.Step()
	}
	for _, m := range log.Moves {
		if !m.PESource && !m.HeadHop {
			return "Figure 4: make-before-break connection strategy\n\n" + trace.RenderMove(m), nil
		}
	}
	if len(log.Moves) > 0 {
		return "Figure 4: make-before-break connection strategy\n\n" + trace.RenderMove(log.Moves[0]), nil
	}
	return "", fmt.Errorf("experiments: no compaction move occurred")
}

// Figure5 shows an entire established virtual bus sinking one level over
// two odd/even cycles.
func Figure5() (string, error) {
	n, err := core.NewNetwork(core.Config{Nodes: 10, Buses: 4, Seed: 1})
	if err != nil {
		return "", err
	}
	if _, err := n.Send(1, 7, make([]uint64, 300)); err != nil {
		return "", err
	}
	// Let the circuit establish at the top without sinking fully: run a
	// few ticks, then capture two consecutive cycles.
	var tl trace.Timeline
	for i := 0; i < 9; i++ {
		n.Step()
	}
	tl.Capture(n)
	n.Step()
	tl.Capture(n)
	n.Step()
	tl.Capture(n)
	var b strings.Builder
	b.WriteString("Figure 5: moving a virtual bus down in one even and one odd cycle\n(alternate INCs move alternate segments; two cycles sink the whole bus one level)\n\n")
	b.WriteString(tl.Render())
	return b.String(), nil
}

// Figure6 renders the port-mapping nomenclature.
func Figure6() (string, error) {
	return trace.Figure6(4), nil
}

// Figure7 renders the four switchable-down conditions from the
// implementation.
func Figure7() (string, error) {
	return trace.Figure7(), nil
}

// Figure8 renders the odd/even pairing rule.
func Figure8() (string, error) {
	return trace.Figure8(), nil
}

// Figure9 renders the four INC switching states.
func Figure9() (string, error) {
	return trace.Figure9(), nil
}

// Figure10 renders the odd/even FSM rules.
func Figure10() (string, error) {
	return trace.Figure10(), nil
}

// Figure11 renders the k-permutation fat tree.
func Figure11() (string, error) {
	tr, err := fattree.NewKPermutation(64, 8)
	if err != nil {
		return "", err
	}
	return trace.Figure11(tr, 8), nil
}

// Lemma1 runs the asynchronous odd/even FSMs under jitter and traffic and
// reports the maximum neighbouring cycle divergence observed.
func Lemma1() (string, error) {
	const N = 16
	n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 3, Mode: core.Async, Seed: 11, JitterMax: 6})
	if err != nil {
		return "", err
	}
	rng := sim.NewRNG(11)
	p := workload.RandomPermutation(N, rng)
	for _, d := range p.Demands {
		if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 8)); err != nil {
			return "", err
		}
	}
	maxDiff := int64(0)
	for i := 0; i < 4000 && !n.Idle(); i++ {
		n.Step()
		for j := 0; j < N; j++ {
			d := n.INCCycle(core.NodeID(j)) - n.INCCycle(core.NodeID((j+1)%N))
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
		if err := n.AuditLemma1(); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	b.WriteString("Lemma 1: all nodes alternate between even and odd cycles, and the number\nof transitions performed by neighbouring nodes never differs by more than one\n\n")
	fmt.Fprintf(&b, "ring of %d INCs, randomized internal delays (1..6 ticks), live traffic\n", N)
	fmt.Fprintf(&b, "cycles completed (min over INCs): %d\n", n.GlobalCycle())
	fmt.Fprintf(&b, "max |cycle(i) - cycle(i+1)| observed over the whole run: %d (bound: 1)\n", maxDiff)
	return b.String(), nil
}

// Theorem1 demonstrates full utilization: for every k, every random
// h-permutation with ring load <= k is routed completely, with the
// starvation valve disabled so the protocol alone provides service.
//
// The 4x8 (k, seed) replication grid is a set of independent simulations,
// so it fans out over parallel.Map; each trial owns its network and RNG,
// and the per-k accumulation below walks the results in grid order, so
// the rendered table is identical to the sequential loop's.
func Theorem1() (string, error) {
	const N = 16
	const trials = 8
	type trial struct {
		msgs             int
		delivered, nacks int64
	}
	runs, err := parallel.Map(parallel.Workers(0), 4*trials, func(i int) (trial, error) {
		k := i/trials + 1
		seed := uint64(i%trials) + 1
		rng := sim.NewRNG(seed * 1313)
		p, err := workload.BoundedLoadPermutation(N, N, k, 5000, rng)
		if err != nil {
			p, err = workload.BoundedLoadPermutation(N, k+2, k, 5000, rng)
			if err != nil {
				return trial{}, err
			}
		}
		n, err := core.NewNetwork(core.Config{
			Nodes: N, Buses: k, Seed: seed,
			HeadTimeout: core.HeadTimeoutDisabled,
		})
		if err != nil {
			return trial{}, err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 3)); err != nil {
				return trial{}, err
			}
		}
		if err := n.Drain(500_000); err != nil {
			return trial{}, fmt.Errorf("k=%d seed=%d: %w", k, seed, err)
		}
		st := n.Stats()
		return trial{len(p.Demands), st.Delivered, st.Nacks}, nil
	})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("Theorem 1: a request is served whenever a bus segment is available on every hop",
		"k", "trials", "messages", "delivered", "nacks (receiver busy)", "complete")
	for k := 1; k <= 4; k++ {
		totalMsgs, totalDelivered, totalNacks := 0, int64(0), int64(0)
		for s := 0; s < trials; s++ {
			t := runs[(k-1)*trials+s]
			totalMsgs += t.msgs
			totalDelivered += t.delivered
			totalNacks += t.nacks
		}
		tb.AddRowf(k, trials, totalMsgs, totalDelivered, totalNacks,
			totalDelivered == int64(totalMsgs))
	}
	return tb.Render(), nil
}

// analysisSweep renders one Section 3.2 metric across design points.
func analysisSweep(title string, metric func(analysis.Costs) float64) string {
	var b strings.Builder
	for _, nk := range [][2]int{{64, 4}, {256, 8}, {1024, 16}} {
		n, k := nk[0], nk[1]
		tb := report.NewTable(fmt.Sprintf("%s (N=%d, k=%d)", title, n, k), "architecture", title, "notes")
		for _, c := range analysis.Compare(n, k) {
			tb.AddRowf(string(c.Arch), metric(c), c.Notes)
		}
		b.WriteString(tb.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// AnalysisLinks regenerates the Section 3.2 link-count comparison.
func AnalysisLinks() (string, error) {
	return analysisSweep("links", func(c analysis.Costs) float64 { return c.Links }), nil
}

// AnalysisCrossPoints regenerates the cross-point comparison.
func AnalysisCrossPoints() (string, error) {
	return analysisSweep("cross points", func(c analysis.Costs) float64 { return c.CrossPoints }), nil
}

// AnalysisArea regenerates the layout-area comparison.
func AnalysisArea() (string, error) {
	return analysisSweep("area", func(c analysis.Costs) float64 { return c.Area }), nil
}

// AnalysisBisection regenerates the bisection-bandwidth statement.
func AnalysisBisection() (string, error) {
	tb := report.NewTable("bisection bandwidth (units of one link bandwidth B)", "architecture", "N=256, k=8")
	for _, c := range analysis.Compare(256, 8) {
		tb.AddRowf(string(c.Arch), c.Bisection)
	}
	out := tb.Render() + "\nthe RMB's bisection bandwidth is k·B, e.g. " +
		fmt.Sprintf("k=8, B=1: %.0f\n", analysis.RMBBisection(8, 1))
	return out, nil
}

// KPermutationSupport measures completion of exact-load ring shifts: the
// operational k-permutation capability metric of Section 3.
func KPermutationSupport() (string, error) {
	const N = 16
	tb := report.NewTable("k-permutation support: shift-by-s permutations (ring load = s) on k buses",
		"k", "shift s", "feasible (s<=k)", "delivered", "ticks", "offline makespan", "ratio")
	for _, k := range []int{1, 2, 4} {
		for _, s := range []int{1, 2, 4, 8} {
			p := workload.RingShift(N, s)
			n, err := core.NewNetwork(core.Config{Nodes: N, Buses: k, Seed: 7})
			if err != nil {
				return "", err
			}
			for _, d := range p.Demands {
				if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 4)); err != nil {
					return "", err
				}
			}
			if err := n.Drain(2_000_000); err != nil {
				return "", err
			}
			off := schedule.Greedy(p, k).Makespan(4)
			ratio := float64(n.Now()) / float64(off)
			tb.AddRowf(k, s, s <= k, n.Stats().Delivered, int64(n.Now()), off, ratio)
		}
	}
	return tb.Render(), nil
}

// ManyShortVirtualBuses demonstrates the Section 4 remark by measuring
// peak concurrent virtual buses under nearest-neighbour traffic.
func ManyShortVirtualBuses() (string, error) {
	tb := report.NewTable("an RMB with k buses supports many more than k virtual buses",
		"N", "k", "peak concurrent virtual buses", "peak/k")
	for _, nk := range [][2]int{{16, 2}, {32, 2}, {64, 4}} {
		N, k := nk[0], nk[1]
		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: k, Seed: 3})
		if err != nil {
			return "", err
		}
		p := workload.NearestNeighbour(N)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 60)); err != nil {
				return "", err
			}
		}
		if err := n.Drain(1_000_000); err != nil {
			return "", err
		}
		peak := n.Stats().PeakActiveVBs
		tb.AddRowf(N, k, peak, float64(peak)/float64(k))
	}
	return tb.Render(), nil
}

// CompetitiveRatio measures the paper's proposed future-work metric: the
// on-line protocol's completion time against the off-line greedy
// schedule, over random patterns.
func CompetitiveRatio() (string, error) {
	const N = 16
	const seeds = 6
	ks := []int{2, 4}
	// Independent (k, seed) replications fan out; rows and the ratio
	// sample are assembled in grid order afterwards, so the artifact is
	// identical to the sequential loop's.
	type runRes struct {
		ticks   int64
		off, lb int
		ratio   float64
	}
	runs, err := parallel.Map(parallel.Workers(0), len(ks)*seeds, func(i int) (runRes, error) {
		k := ks[i/seeds]
		seed := uint64(i%seeds) + 1
		rng := sim.NewRNG(seed * 31)
		p := workload.RandomPermutation(N, rng)
		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: k, Seed: seed})
		if err != nil {
			return runRes{}, err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 8)); err != nil {
				return runRes{}, err
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			return runRes{}, err
		}
		off := schedule.Greedy(p, k).Makespan(8)
		lb := schedule.LowerBoundTicks(p, k, 8)
		return runRes{int64(n.Now()), off, lb, float64(n.Now()) / float64(off)}, nil
	})
	if err != nil {
		return "", err
	}
	tb := report.NewTable("competitiveness of the on-line protocol (random communication patterns)",
		"pattern", "k", "online ticks", "offline makespan", "lower bound", "competitive ratio")
	var ratios metrics.Sample
	for i, r := range runs {
		ratios.Add(r.ratio)
		tb.AddRowf(fmt.Sprintf("perm(seed=%d)", i%seeds+1), ks[i/seeds], r.ticks, r.off, r.lb, r.ratio)
	}
	out := tb.Render()
	out += fmt.Sprintf("\nratio: mean=%.2f median=%.2f max=%.2f over %d runs\n",
		ratios.Mean(), ratios.Median(), ratios.Percentile(100), ratios.Count())
	return out, nil
}

// ArchComparison routes the same random permutations over the RMB and the
// three baselines and compares completion times.
func ArchComparison() (string, error) {
	const N = 16
	const payload = 8
	// One task per seed routes the permutation over all five systems; the
	// summaries are folded in seed order below, so the table matches the
	// sequential loop's bit for bit.
	type seedRes struct{ rmb, cube, ehc, ft, mesh float64 }
	runs, err := parallel.Map(parallel.Workers(0), 5, func(i int) (seedRes, error) {
		seed := uint64(i) + 1
		rng := sim.NewRNG(seed * 17)
		p := workload.RandomPermutation(N, rng)
		var res seedRes

		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 4, Seed: seed})
		if err != nil {
			return res, err
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, payload)); err != nil {
				return res, err
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			return res, err
		}
		res.rmb = float64(n.Now())

		cube, err := hypercube.New(N, false)
		if err != nil {
			return res, err
		}
		rc, err := circuit.NewEngine(cube, circuit.Options{Payload: payload, Seed: seed}).Route(p, sim.NewRNG(seed))
		if err != nil {
			return res, err
		}
		res.cube = float64(rc.Ticks)

		ehc, err := hypercube.New(N, true)
		if err != nil {
			return res, err
		}
		re, err := circuit.NewEngine(ehc, circuit.Options{Payload: payload, Seed: seed}).Route(p, sim.NewRNG(seed))
		if err != nil {
			return res, err
		}
		res.ehc = float64(re.Ticks)

		tr, err := fattree.NewKPermutation(N, 4)
		if err != nil {
			return res, err
		}
		rf, err := circuit.NewEngine(tr, circuit.Options{Payload: payload, Seed: seed}).Route(p, sim.NewRNG(seed))
		if err != nil {
			return res, err
		}
		res.ft = float64(rf.Ticks)

		m, err := mesh.NewSquare(N, 2)
		if err != nil {
			return res, err
		}
		rm, err := circuit.NewEngine(m, circuit.Options{Payload: payload, Seed: seed}).Route(p, sim.NewRNG(seed))
		if err != nil {
			return res, err
		}
		res.mesh = float64(rm.Ticks)
		return res, nil
	})
	if err != nil {
		return "", err
	}
	sums := map[string]*metrics.Summary{}
	add := func(name string, v float64) {
		s, ok := sums[name]
		if !ok {
			s = &metrics.Summary{}
			sums[name] = s
		}
		s.Add(v)
	}
	for _, r := range runs {
		add("RMB (ring, k=4)", r.rmb)
		add("hypercube (e-cube)", r.cube)
		add("EHC", r.ehc)
		add("fat tree (k=4)", r.ft)
		add("mesh (cap 2)", r.mesh)
	}
	// Normalize by the Section 3.2 layout area of each design point, so
	// the table answers "who wins per unit of silicon" as well as raw
	// latency. (The paper's own comparison is purely structural; the raw
	// timing columns are our extension.)
	areas := map[string]float64{
		"RMB (ring, k=4)":    analysis.RMB(N, 4).Area,
		"hypercube (e-cube)": analysis.Hypercube(N).Area,
		"EHC":                analysis.EHC(N).Area,
		"fat tree (k=4)":     analysis.FatTree(N, 4).Area,
		"mesh (cap 2)":       analysis.Mesh(N, 4).Area,
	}
	tb := report.NewTable(fmt.Sprintf("random full permutations on N=%d, payload %d flits (5 seeds)", N, payload),
		"architecture", "mean ticks", "min", "max", "area", "area-delay product")
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sums[name]
		tb.AddRowf(name, s.Mean(), s.Min(), s.Max(), areas[name], s.Mean()*areas[name])
	}
	out := tb.Render()
	out += "\nnote: a 16-node ring has mean distance ~N/4 versus the log-diameter baselines,\nso raw completion time favours them; the paper's claims are the structural\ncolumns (links / cross points / area, experiments A1-A4) and routing simplicity.\n"
	return out, nil
}

// AblationCompaction isolates what compaction buys: with the paper's
// literal top-bus-only headers, a parked circuit on the top segment
// blocks every later header crossing that hop unless compaction sinks
// it. The 2x2 over head rule and compaction shows the effect directly,
// including the mean wait from enqueue to header insertion (the top-bus
// availability the protocol is designed to provide).
func AblationCompaction() (string, error) {
	const N = 16
	tb := report.NewTable("ablation: compaction on/off (random permutations, k=3, payload 24, 3 queued messages per node)",
		"head rule", "compaction", "mean completion ticks", "mean insertion wait", "mean moves")
	for _, rule := range []core.HeadRule{core.HeadStrictTop, core.HeadFlexible} {
		for _, disabled := range []bool{false, true} {
			var ticks, wait, moves metrics.Summary
			for seed := uint64(1); seed <= 5; seed++ {
				rng := sim.NewRNG(seed * 7)
				n, err := core.NewNetwork(core.Config{
					Nodes: N, Buses: 3, Seed: seed,
					HeadRule: rule, DisableCompaction: disabled,
				})
				if err != nil {
					return "", err
				}
				hist := core.NewHistory(n)
				// A stream of three permutations queued back to back so
				// insertion availability, not raw capacity, gates progress.
				for round := 0; round < 3; round++ {
					p := workload.RandomPermutation(N, rng)
					for _, d := range p.Demands {
						if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 24)); err != nil {
							return "", err
						}
					}
				}
				if err := n.Drain(4_000_000); err != nil {
					return "", err
				}
				st := n.Stats()
				ticks.Add(float64(n.Now()))
				moves.Add(float64(st.CompactionMoves))
				hist.EachRecord(func(r core.MsgRecord) {
					wait.Add(float64(r.FirstInserted - r.Enqueued))
				})
			}
			label := "on"
			if disabled {
				label = "off"
			}
			tb.AddRowf(rule.String(), label, ticks.Mean(), wait.Mean(), moves.Mean())
		}
	}
	return tb.Render(), nil
}

// AblationHeadRule compares the three header advance policies.
func AblationHeadRule() (string, error) {
	const N = 16
	tb := report.NewTable("ablation: header advance rule (random permutations, k=3, payload 8)",
		"rule", "mean completion ticks", "mean head-block ticks")
	for _, rule := range []core.HeadRule{core.HeadFlexible, core.HeadStraightOnly, core.HeadStrictTop} {
		var ticks, blocks metrics.Summary
		for seed := uint64(1); seed <= 5; seed++ {
			rng := sim.NewRNG(seed * 7)
			p := workload.RandomPermutation(N, rng)
			n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 3, Seed: seed, HeadRule: rule})
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
			ticks.Add(float64(n.Now()))
			blocks.Add(float64(n.Stats().HeadBlockTicks))
		}
		tb.AddRowf(rule.String(), ticks.Mean(), blocks.Mean())
	}
	return tb.Render(), nil
}

// AblationTransferModel compares Dack flow-control windows.
func AblationTransferModel() (string, error) {
	const N = 16
	tb := report.NewTable("ablation: Dack window (shift-by-5 pattern, k=2, payload 32)",
		"window", "completion ticks", "mean delivery latency")
	for _, w := range []int{0, 1, 2, 8} {
		n, err := core.NewNetwork(core.Config{Nodes: N, Buses: 2, Seed: 3, DackWindow: w})
		if err != nil {
			return "", err
		}
		p := workload.RingShift(N, 5)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 32)); err != nil {
				return "", err
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			return "", err
		}
		label := fmt.Sprintf("%d", w)
		if w == 0 {
			label = "unlimited"
		}
		tb.AddRowf(label, int64(n.Now()), n.Stats().MeanDeliverLatency())
	}
	return tb.Render(), nil
}
