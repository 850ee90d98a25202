package rmb

// One benchmark per experiment row in DESIGN.md §3: every table and
// figure of the paper plus the lemma/theorem demonstrations, the Section
// 3.2 analysis, and the extension studies. Each bench regenerates its
// artifact through the same code path as cmd/rmbbench and reports a
// domain metric where one is meaningful. EXPERIMENTS.md records the
// paper-vs-measured outcomes.

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"rmb/internal/core"
	"rmb/internal/experiments"
	"rmb/internal/loadgen"
	"rmb/internal/schedule"
	"rmb/internal/sim"
	"rmb/internal/workload"
)

// -rmbsched forces the core scheduler for every network the benchmarks
// build (experiments construct their own Configs with SchedulerAuto, so a
// package default is the only practical lever). scripts/bench.sh runs
// the suite once per scheduler to produce BENCH_baseline.json.
var rmbsched = flag.String("rmbsched", "", `force the core scheduler: "event" or "naive" (default: package default)`)

func TestMain(m *testing.M) {
	flag.Parse()
	switch *rmbsched {
	case "":
	case "event":
		core.SetDefaultScheduler(core.SchedulerEventDriven)
	case "naive":
		core.SetDefaultScheduler(core.SchedulerNaive)
	default:
		fmt.Fprintf(os.Stderr, "unknown -rmbsched %q (want event or naive)\n", *rmbsched)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// benchArtifact drives one experiment artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = e.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if len(out) == 0 {
		b.Fatalf("%s produced no output", id)
	}
	b.ReportMetric(float64(len(out)), "artifact-bytes")
}

// --- Tables ---

func BenchmarkTable1StatusDecode(b *testing.B) { benchArtifact(b, "T1") }
func BenchmarkTable2CycleFSM(b *testing.B)     { benchArtifact(b, "T2") }

// --- Figures ---

func BenchmarkFigure1Topology(b *testing.B)        { benchArtifact(b, "F1") }
func BenchmarkFigure2VirtualBuses(b *testing.B)    { benchArtifact(b, "F2") }
func BenchmarkFigure3TopBusRelease(b *testing.B)   { benchArtifact(b, "F3") }
func BenchmarkFigure4MakeBeforeBreak(b *testing.B) { benchArtifact(b, "F4") }
func BenchmarkFigure5TwoCycleSink(b *testing.B)    { benchArtifact(b, "F5") }
func BenchmarkFigure6PortMap(b *testing.B)         { benchArtifact(b, "F6") }
func BenchmarkFigure7FourConditions(b *testing.B)  { benchArtifact(b, "F7") }
func BenchmarkFigure8OddEvenPairs(b *testing.B)    { benchArtifact(b, "F8") }
func BenchmarkFigure9SwitchStates(b *testing.B)    { benchArtifact(b, "F9") }
func BenchmarkFigure10FSMTransitions(b *testing.B) { benchArtifact(b, "F10") }
func BenchmarkFigure11FatTree(b *testing.B)        { benchArtifact(b, "F11") }

// --- Lemma 1 and Theorem 1 ---

func BenchmarkLemma1CycleAgreement(b *testing.B) { benchArtifact(b, "L1") }

func BenchmarkTheorem1FullUtilization(b *testing.B) {
	// Route feasible (load <= k) permutations with the starvation valve
	// disabled; the protocol itself must serve every request.
	const N, K = 16, 3
	delivered := int64(0)
	for i := 0; i < b.N; i++ {
		rng := sim.NewRNG(uint64(i) + 1)
		p, err := workload.BoundedLoadPermutation(N, N, K, 5000, rng)
		if err != nil {
			p, err = workload.BoundedLoadPermutation(N, K+2, K, 5000, rng)
			if err != nil {
				b.Fatal(err)
			}
		}
		n, err := core.NewNetwork(core.Config{
			Nodes: N, Buses: K, Seed: uint64(i),
			HeadTimeout: core.HeadTimeoutDisabled,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 3)); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(500_000); err != nil {
			b.Fatal(err)
		}
		if got := int(n.Stats().Delivered); got != len(p.Demands) {
			b.Fatalf("delivered %d/%d", got, len(p.Demands))
		}
		delivered += n.Stats().Delivered
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "msgs/op")
}

// --- Section 3.2 analysis ---

func BenchmarkAnalysisLinks(b *testing.B)       { benchArtifact(b, "A1") }
func BenchmarkAnalysisCrossPoints(b *testing.B) { benchArtifact(b, "A2") }
func BenchmarkAnalysisArea(b *testing.B)        { benchArtifact(b, "A3") }
func BenchmarkAnalysisBisection(b *testing.B)   { benchArtifact(b, "A4") }

// --- Permutation capability ---

func BenchmarkKPermutationSupport(b *testing.B) {
	// The headline shape: a k-bus RMB routes a load-k shift permutation;
	// report the completion ticks for k=4 on N=16.
	var ticks sim.Tick
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: 4, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		p := workload.RingShift(16, 4)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 4)); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			b.Fatal(err)
		}
		ticks = n.Now()
	}
	b.ReportMetric(float64(ticks), "ticks")
}

func BenchmarkManyShortVirtualBuses(b *testing.B) {
	// Section 4 remark: peak concurrent virtual buses far exceeds k.
	peak := 0
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{Nodes: 32, Buses: 2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		p := workload.NearestNeighbour(32)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 60)); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(1_000_000); err != nil {
			b.Fatal(err)
		}
		peak = n.Stats().PeakActiveVBs
	}
	b.ReportMetric(float64(peak), "peak-vbs")
}

// --- Competitiveness and architecture comparison ---

func BenchmarkCompetitiveRatio(b *testing.B) {
	// Future-work metric: online/offline completion ratio for random
	// permutations on k=4.
	var ratio float64
	for i := 0; i < b.N; i++ {
		rng := sim.NewRNG(uint64(i)*31 + 1)
		p := workload.RandomPermutation(16, rng)
		n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: 4, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 8)); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			b.Fatal(err)
		}
		off := schedule.Greedy(p, 4).Makespan(8)
		ratio = float64(n.Now()) / float64(off)
	}
	b.ReportMetric(ratio, "competitive-ratio")
}

func BenchmarkArchComparison(b *testing.B) { benchArtifact(b, "C2") }

// --- Ablations ---

func BenchmarkAblationCompaction(b *testing.B) {
	// Completion time with and without compaction on the same workload.
	run := func(disabled bool, seed uint64) sim.Tick {
		n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: 3, Seed: seed, DisableCompaction: disabled})
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(seed * 7)
		p := workload.RandomPermutation(16, rng)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 8)); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(2_000_000); err != nil {
			b.Fatal(err)
		}
		return n.Now()
	}
	var on, off sim.Tick
	for i := 0; i < b.N; i++ {
		on = run(false, uint64(i)+1)
		off = run(true, uint64(i)+1)
	}
	b.ReportMetric(float64(on), "ticks-compaction-on")
	b.ReportMetric(float64(off), "ticks-compaction-off")
}

func BenchmarkAblationHeadRule(b *testing.B)      { benchArtifact(b, "AB2") }
func BenchmarkAblationTransferModel(b *testing.B) { benchArtifact(b, "AB3") }

// --- Future-work extension studies ---

func BenchmarkExtensionDuplex(b *testing.B)         { benchArtifact(b, "DX1") }
func BenchmarkExtensionMulticast(b *testing.B)      { benchArtifact(b, "MC1") }
func BenchmarkExtensionGrid(b *testing.B)           { benchArtifact(b, "GR1") }
func BenchmarkExtensionModules(b *testing.B)        { benchArtifact(b, "MS1") }
func BenchmarkExtensionTorus(b *testing.B)          { benchArtifact(b, "C3") }
func BenchmarkCompetitiveApplications(b *testing.B) { benchArtifact(b, "C4") }
func BenchmarkBusCrossover(b *testing.B)            { benchArtifact(b, "X1") }
func BenchmarkMultibusComparison(b *testing.B)      { benchArtifact(b, "MB1") }
func BenchmarkFairness(b *testing.B)                { benchArtifact(b, "FA1") }
func BenchmarkDeadlockDemonstration(b *testing.B)   { benchArtifact(b, "DL1") }

func BenchmarkLatencyThroughputPoint(b *testing.B) {
	// One open-loop point of the LT1 curve: k=4 at a healthy load.
	var mean float64
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: 4, Seed: uint64(i) + 7})
		if err != nil {
			b.Fatal(err)
		}
		res, err := loadgen.Run(n, loadgen.Config{
			Rate: 0.005, PayloadLen: 4, Warmup: 200, Measure: 1500, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Latency.Mean()
	}
	b.ReportMetric(mean, "mean-latency-ticks")
}

func BenchmarkBroadcast(b *testing.B) {
	// One broadcast circuit spanning the whole ring, payload 16.
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: 2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Broadcast(0, make([]uint64, 16)); err != nil {
			b.Fatal(err)
		}
		if err := n.Drain(100_000); err != nil {
			b.Fatal(err)
		}
		if got := int(n.Stats().Delivered); got != 15 {
			b.Fatalf("delivered %d", got)
		}
	}
}

// --- Micro-benchmarks of the core machinery ---

func BenchmarkNetworkStepIdleCircuits(b *testing.B) {
	// Cost of one tick with 8 established circuits being compacted.
	n, err := core.NewNetwork(core.Config{Nodes: 64, Buses: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 64; s += 8 {
		if _, err := n.Send(core.NodeID(s), core.NodeID((s+6)%64), make([]uint64, 1<<20)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		n.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

func BenchmarkLargeRingShift(b *testing.B) {
	// Simulator scalability: a 256-node, 8-bus ring routing the exactly
	// feasible shift-by-8 pattern (ring load = k) with 16-flit payloads.
	// A saturated random permutation at this scale thrashes for millions
	// of ticks (mean load 64 on 8 buses) and is exercised by GR1/MS1
	// instead.
	var ticks sim.Tick
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{Nodes: 256, Buses: 8, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		p := workload.RingShift(256, 8)
		for _, d := range p.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), make([]uint64, 16)); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(5_000_000); err != nil {
			b.Fatal(err)
		}
		ticks = n.Now()
	}
	b.ReportMetric(float64(ticks), "ticks")
}

// runHugeRingSaturated is one iteration body of the saturated-ring
// benchmarks: an N-node, 8-bus ring routing the shift-by-8 pattern
// (ring load exactly k, so capacity is fully subscribed) with 64-flit
// payloads. The payload buffer and the demand pattern are built by the
// caller, outside the measured region: Send copies payloads into the
// simulator's arena, so reusing one buffer across sends measures the
// simulator's copy, not the harness's garbage.
func runHugeRingSaturated(b *testing.B, cfg core.Config, nodes int) {
	b.Helper()
	pat := workload.RingShift(nodes, 8)
	payload := make([]uint64, 64)
	b.ResetTimer()
	var ticks sim.Tick
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		n, err := core.NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range pat.Demands {
			if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(20_000_000); err != nil {
			b.Fatal(err)
		}
		ticks = n.Now()
	}
	b.ReportMetric(float64(ticks), "ticks")
}

// BenchmarkHugeRingSaturated keeps a saturated ring busy at three scales
// (shift load exactly k = 8) — the shape where per-tick work dominates
// and the SoA word-scan kernels carry the run. N=1024 is the headline
// row BENCH_baseline.json gates in CI.
func BenchmarkHugeRingSaturated(b *testing.B) {
	for _, nodes := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", nodes), func(b *testing.B) {
			runHugeRingSaturated(b, core.Config{
				Nodes: nodes, Buses: 8, Scheduler: core.SchedulerEventDriven,
			}, nodes)
		})
	}
}

func BenchmarkSendDrainSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{Nodes: 8, Buses: 2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Send(0, 5, []uint64{1, 2, 3}); err != nil {
			b.Fatal(err)
		}
		if err := n.Drain(10_000); err != nil {
			b.Fatal(err)
		}
	}
}
