// Command rmbsim runs one RMB simulation from the command line: it
// generates a workload, routes it on the cycle-stepped simulator, and
// prints completion statistics, the off-line comparison, and optionally a
// live occupancy trace.
//
// Usage examples:
//
//	rmbsim -nodes 16 -buses 4 -pattern permutation -payload 8
//	rmbsim -nodes 32 -buses 2 -pattern shift -shift 5 -trace
//	rmbsim -nodes 16 -buses 4 -pattern hotspot -messages 64 -mode async
//	rmbsim -nodes 32 -pattern alltoall -http :8080 -hold 30s
//	rmbsim -nodes 16 -pattern permutation -trace-out run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rmb/internal/core"
	"rmb/internal/prof"
	"rmb/internal/report"
	"rmb/internal/results"
	"rmb/internal/schedule"
	"rmb/internal/sim"
	"rmb/internal/telemetry"
	"rmb/internal/trace"
	"rmb/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 16, "ring size N")
	buses := flag.Int("buses", 4, "bus count k")
	pattern := flag.String("pattern", "permutation", "workload: permutation, shift, uniform, hotspot, neighbour, bitrev, transpose, shuffle, butterfly, complement, tornado, alltoall")
	shift := flag.Int("shift", 1, "shift distance for -pattern shift")
	messages := flag.Int("messages", 32, "message count for uniform/hotspot")
	payload := flag.Int("payload", 8, "data flits per message")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	mode := flag.String("mode", "lockstep", "compaction cycle mode: lockstep or async")
	sched := flag.String("sched", "event", "tick scheduler: event, naive")
	headRule := flag.String("head", "flexible", "header advance rule: flexible, straight, strict-top")
	noCompact := flag.Bool("no-compaction", false, "disable the compaction protocol")
	traceNet := flag.Bool("trace", false, "print occupancy snapshots while routing")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of tables")
	gantt := flag.Bool("gantt", false, "render per-message lifecycle timelines after the run")
	maxTicks := flag.Int64("max-ticks", 5_000_000, "tick budget")
	faults := flag.Float64("faults", 0, "chaos mode: probability each segment experiences fail/repair episodes")
	faultINCs := flag.Float64("fault-incs", 0, "chaos mode: probability each INC experiences fail/repair episodes")
	faultHorizon := flag.Int64("fault-horizon", 1000, "chaos mode: last tick of injected fault activity (faults heal by then)")
	faultSeed := flag.Uint64("fault-seed", 0, "chaos mode: fault-schedule seed (default: -seed)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	httpAddr := flag.String("http", "", "serve the live observer (/metrics, /snapshot, /vb, pprof) on this address")
	hold := flag.Duration("hold", 0, "keep the -http observer serving this long after the run completes")
	sample := flag.Int("sample", 1, "with -http: publish a snapshot to the observer every N ticks")
	traceOut := flag.String("trace-out", "", "write the JSONL event stream to this file (analyze with rmbtrace)")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
		}
	}()

	rng := sim.NewRNG(*seed)
	var p workload.Pattern
	switch *pattern {
	case "permutation":
		p = workload.RandomPermutation(*nodes, rng)
	case "shift":
		p = workload.RingShift(*nodes, *shift)
	case "uniform":
		p = workload.UniformRandom(*nodes, *messages, rng)
	case "hotspot":
		p = workload.Hotspot(*nodes, *messages, 0, 0.5, rng)
	case "neighbour":
		p = workload.NearestNeighbour(*nodes)
	case "bitrev":
		p, err = workload.BitReversal(*nodes)
	case "transpose":
		p, err = workload.Transpose(*nodes)
	case "shuffle":
		p, err = workload.PerfectShuffle(*nodes)
	case "butterfly":
		p, err = workload.Butterfly(*nodes)
	case "complement":
		p, err = workload.BitComplement(*nodes)
	case "tornado":
		p = workload.Tornado(*nodes)
	case "alltoall":
		p = workload.AllToAll(*nodes)
	default:
		fmt.Fprintf(os.Stderr, "rmbsim: unknown pattern %q\n", *pattern)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
		os.Exit(2)
	}

	cfg := core.Config{
		Nodes: *nodes, Buses: *buses, Seed: *seed,
		DisableCompaction: *noCompact,
	}
	if *faults > 0 || *faultINCs > 0 {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed
		}
		cfg.Faults = core.ChaosPlan(*nodes, *buses, core.ChaosOptions{
			Seed: fs, Horizon: sim.Tick(*faultHorizon),
			SegmentRate: *faults, INCRate: *faultINCs,
		})
	}
	switch *mode {
	case "lockstep":
		cfg.Mode = core.Lockstep
	case "async":
		cfg.Mode = core.Async
	default:
		fmt.Fprintf(os.Stderr, "rmbsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	switch *headRule {
	case "flexible":
		cfg.HeadRule = core.HeadFlexible
	case "straight":
		cfg.HeadRule = core.HeadStraightOnly
	case "strict-top":
		cfg.HeadRule = core.HeadStrictTop
	default:
		fmt.Fprintf(os.Stderr, "rmbsim: unknown head rule %q\n", *headRule)
		os.Exit(2)
	}
	switch *sched {
	case "event":
		cfg.Scheduler = core.SchedulerEventDriven
	case "naive":
		cfg.Scheduler = core.SchedulerNaive
	default:
		fmt.Fprintf(os.Stderr, "rmbsim: unknown scheduler %q\n", *sched)
		os.Exit(2)
	}

	// Telemetry rides along through the recorder tee and snapshot pulls;
	// the simulation itself is identical with or without it.
	var eventWriter *telemetry.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		eventWriter = telemetry.NewWriter(f)
		defer func() {
			if err := eventWriter.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
			}
		}()
		cfg.Recorder = core.Tee(cfg.Recorder, &telemetry.Adapter{Observe: eventWriter.Observe})
	}
	var obs *telemetry.Observatory
	if *httpAddr != "" {
		if *sample < 1 {
			*sample = 1
		}
		obs = telemetry.NewObservatory(telemetry.NewSampler(1, 512))
		srv, err := telemetry.StartServer(*httpAddr, obs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rmbsim: observer listening on %s\n", srv.Addr)
		defer func() {
			if *hold > 0 {
				fmt.Fprintf(os.Stderr, "rmbsim: holding observer for %v\n", *hold)
				time.Sleep(*hold)
			}
		}()
	}

	n, err := core.NewNetwork(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
		os.Exit(2)
	}
	var hist *core.History // the per-message views need every finished record
	if *jsonOut || *gantt {
		hist = core.NewHistory(n)
	}
	data := make([]uint64, *payload)
	for i := range data {
		data[i] = uint64(i)
	}
	for _, d := range p.Demands {
		if _, err := n.Send(core.NodeID(d.Src), core.NodeID(d.Dst), data); err != nil {
			fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
			os.Exit(2)
		}
	}

	if !*jsonOut {
		fmt.Printf("routing %s on N=%d k=%d (%s compaction, %s heads)\n\n",
			p.Name, *nodes, *buses, map[bool]string{false: cfg.Mode.String(), true: "disabled"}[*noCompact], cfg.HeadRule)
	}

	if *traceNet || obs != nil {
		// Manual tick loop: the occupancy trace and the observer both pull
		// immutable snapshots between ticks, so the run stays identical to
		// a plain Drain.
		i := int64(0)
		for ; i < *maxTicks && !n.Idle(); i++ {
			n.Step()
			if *traceNet && i%8 == 0 {
				fmt.Print(trace.RenderOccupancy(n.Snapshot()))
				fmt.Println()
			}
			if obs != nil && i%int64(*sample) == 0 {
				obs.Publish(n.Snapshot(), n.Stats())
			}
		}
		if obs != nil {
			obs.Publish(n.Snapshot(), n.Stats())
		}
		if i >= *maxTicks && !n.Idle() {
			fmt.Fprintf(os.Stderr, "rmbsim: tick budget %d exhausted before quiescence\n", *maxTicks)
			os.Exit(1)
		}
	} else if err := n.Drain(sim.Tick(*maxTicks)); err != nil {
		fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		rep := results.FromNetwork(n, hist, p.Name, true)
		if err := rep.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rmbsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	st := n.Stats()
	tb := report.NewTable("results", "metric", "value")
	tb.AddRowf("messages", st.MessagesSubmitted)
	tb.AddRowf("delivered", st.Delivered)
	tb.AddRowf("completion ticks", int64(n.Now()))
	tb.AddRowf("insertions", st.Insertions)
	tb.AddRowf("nacks", st.Nacks)
	tb.AddRowf("retries", st.Retries)
	tb.AddRowf("head timeouts", st.HeadTimeouts)
	tb.AddRowf("compaction moves", st.CompactionMoves)
	tb.AddRowf("odd/even cycles", n.GlobalCycle())
	tb.AddRowf("mean delivery latency", st.MeanDeliverLatency())
	tb.AddRowf("mean utilization", st.MeanUtilization(*nodes**buses))
	tb.AddRowf("peak virtual buses", st.PeakActiveVBs)
	if len(cfg.Faults.Events) > 0 {
		tb.AddRowf("segment fail events", st.SegmentFailEvents)
		tb.AddRowf("inc fail events", st.INCFailEvents)
		tb.AddRowf("fault teardowns", st.FaultTeardowns)
		tb.AddRowf("fault insert refusals", st.FaultInsertRefusals)
		tb.AddRowf("fault dest refusals", st.FaultDestRefusals)
		tb.AddRowf("mean faulty segments", fmt.Sprintf("%.2f", st.MeanFaultySegments()))
	}
	fmt.Println(tb.Render())

	off := schedule.Greedy(p, *buses).Makespan(*payload)
	lb := schedule.LowerBoundTicks(p, *buses, *payload)
	fmt.Printf("off-line greedy makespan: %d ticks (lower bound %d)\n", off, lb)
	if off > 0 {
		fmt.Printf("competitive ratio: %.2f\n", float64(n.Now())/float64(off))
	}
	if *gantt {
		fmt.Println()
		fmt.Print(trace.Gantt{}.Render(hist.Records()))
	}
}
