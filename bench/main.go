// Command bench is the repository's end-to-end benchmark: it builds
// rmbd and rmbbench from the checkout it runs in, drives a live rmbd
// over HTTP (and the rmbbench child) through five seeded workloads,
// checks every output, and prints each metric by name and unit. The
// last line of standard output is one JSON object, as BENCHMARK.json's
// contract requires. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metricDef is one line of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the bounded metrics. Every workload reports every
// one of them, and none is ever 0. The bounds are what the builder's
// 2-core VM can hold: back-to-back runs agree within 2–7 %, but the
// machine itself drifted by 15–19 % between quiet and busy periods of
// one session (README, "Noise"). A smaller effect is resolved with
// -selfcheck or ten alternating pairs, not with a tighter bound.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// perLayerDefs are the unbounded metrics of the traced run, layer by
// layer. A layer the workload does not exercise is measured by the
// traced run's probe (see result.probe).
var perLayerDefs = func() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ms", "latency_p95_ms", "ckpt_ms_p50", "resume_ms_p50")
	add("higher", "1/s", "sim_ticks_per_s")
	add("lower", "ratio", "failed_share")
	add("lower", "ms", "service.http_submit_ms_p50", "service.http_status_ms_p50", "service.http_result_ms_p50", "service.http_trace_ms_p50", "service.http_server_ms_per_job")
	add("lower", "count", "service.http_requests_per_job")
	add("lower", "us", "service.admission_us_p50", "service.cache_lookup_us_p50")
	add("lower", "ms", "service.queue_wait_ms_p50", "service.queue_wait_ms_p95")
	add("lower", "us", "service.pool_acquire_us_p50")
	add("higher", "ratio", "service.pool_reuse_share", "service.cache_hit_share")
	add("lower", "count", "service.cache_evictions")
	add("lower", "ms", "service.run_ms_p50", "service.run_ms_p95")
	add("lower", "us", "service.trace_seal_us_p50", "service.result_encode_us_p50")
	add("lower", "ms", "service.residual_ms_p50")
	add("lower", "ratio", "service.residual_share")
	add("lower", "count", "service.rejected_429", "service.allocs_per_job")
	add("lower", "KB", "service.alloc_kb_per_job")
	add("lower", "ms", "service.gc_pause_ms_total")
	add("lower", "KB", "service.rss_growth_kb_per_job")
	add("lower", "ms", "service.metrics_scrape_ms_end")
	add("lower", "B", "service.ckpt_bytes_p50")
	add("lower", "ms", "service.ckpt_encode_ms_p50", "service.ckpt_decode_ms_p50", "service.resume_admit_ms_p50", "service.restore_ms_p50")
	add("lower", "ms", "rmbd.start_ms")
	add("higher", "ratio", "rmbd.worker_busy_share")
	add("lower", "us", "loadgen.new_driver_us_p50")
	add("lower", "ns", "loadgen.step_ns_per_tick")
	add("lower", "us", "loadgen.result_us_p50", "core.new_network_us_p50", "core.reset_us_p50")
	add("lower", "ns", "core.send_ns", "core.step_ns_per_tick", "core.step_ns_per_busy_segment_tick")
	add("lower", "ms", "core.ckpt_marshal_ms_p50", "core.ckpt_unmarshal_ms_p50")
	add("lower", "B", "core.ckpt_bytes")
	add("lower", "count", "core.sim_ticks", "core.sim_submitted", "core.sim_delivered", "core.sim_insertions", "core.sim_retries",
		"core.sim_nacks", "core.sim_compaction_moves", "core.sim_head_block_ticks", "core.sim_busy_segment_ticks")
	add("lower", "ns", "telemetry.append_event_ns")
	add("higher", "MB/s", "telemetry.writer_mb_per_s")
	add("lower", "KB", "telemetry.trace_kb_per_job_p50")
	add("lower", "count", "telemetry.events_per_job_p50")
	add("lower", "ratio", "telemetry.traced_run_slowdown")
	add("lower", "ns", "obs.observe_ns")
	add("lower", "ms", "obs.parse_exposition_ms", "experiments.TH1_ms", "experiments.GR1_ms", "experiments.MS1_ms", "experiments.rest_ms", "rmbbench.process_overhead_ms")
	add("lower", "s", "bench.build_s")
	add("lower", "ms", "bench.gen_late_ms_p95", "bench.job_self_ms_p50")
	add("lower", "count", "bench.polls_per_job")
	add("lower", "ratio", "bench.slo_miss_share", "bench.trace_overhead_share", "bench.round_spread_jobs_per_s")
	add("higher", "count", "bench.oracle_checked_jobs")
	return out
}()

var workloadWhy = map[string]string{
	wSweepSmall: "closed loop, 2 clients, unique small rings: half the latency is HTTP, admission, queue, pool and JSON, so service work shows and core speed-ups are diluted",
	wSweepLarge: "closed loop, 1 client, unique 1024- and 4096-node rings: nearly all latency is core.Step, so kernel and state-layout work shows and service work must not",
	wUsersZipf:  "open loop at 300 arrivals/s, Zipf-popular specs, a quarter traced: cache hits, LRU eviction, trace read-out and queueing behind misses",
	wCkptResume: "closed loop of checkpoint, cancel and resume cycles on a 256-node ring: the same core state written then read, so serializer cost shows here only",
	wArtifacts:  "sequential rmbbench -all children checked against docs/artifacts.txt: the paper reproduction and the only run of experiments, grid, module, schedule and baselines",
}

const runSeconds = 12

// manifest renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift (the smoke test compares them).
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound: it is omitted when 0
	}{
		Command:    []string{"go", "run", "-C", "bench", "rmb/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, n := range workloadNames {
		m.Workloads = append(m.Workloads, workload{n, workloadWhy[n]})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}

// printResult writes the human table, then the contract's JSON line.
// names selects which metrics go into the JSON object.
func printResult(res *result, names []metricDef) error {
	fmt.Printf("\n== %s: %d rounds, %d attempted, %d failed ==\n", res.workload, res.rounds, res.attempted, res.failed)
	for _, m := range res.metrics {
		line := fmt.Sprintf("%-42s %16.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Min != m.Max {
			line += fmt.Sprintf("  [min %.6g, max %.6g]", m.Min, m.Max)
		}
		if m.Probe {
			line += "  (probe)"
		}
		fmt.Println(line)
	}
	fmt.Printf("%-42s %16d %-6s\n", "cache_hits_at_submit (first round)", res.cacheHits, "count")
	for _, e := range res.errs {
		fmt.Println("FAILED:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, d := range names {
		v, ok := res.value(d.Name)
		if !ok {
			return fmt.Errorf("bench: %s did not report %s", res.workload, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSpans dumps the traced run's spans to bench/out/spans.jsonl.
func writeSpans(e *env, rec *spanRecorder) error {
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "all", "workload to run: one of "+strings.Join(workloadNames, ", ")+", a comma-separated list, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	short := flag.Bool("short", false, "tiny job lists (the smoke test's sizes)")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and hold the second run to the first within each metric's bound")
	ab := flag.String("ab", "", "extra daemon flags: A/B them against the default daemon on sweep-small rounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		data, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	names := workloadNames
	if *workload != "all" {
		names = strings.Split(*workload, ",")
	}
	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, short: *short, trace: *trace != 0}
	switch {
	case *ab != "":
		err = runAB(e, rc, strings.Fields(*ab))
	case *selfcheck:
		err = runSelfcheck(e, names, rc)
	default:
		defs := endToEndDefs
		if rc.trace {
			defs = perLayerDefs
		}
		for _, n := range names {
			var res *result
			if res, err = runWorkload(e, n, rc); err != nil {
				break
			}
			// An incorrect run still prints its result and exits 0: the
			// JSON line's "correct" and "failed" carry the verdict.
			if err = printResult(res, defs); err != nil {
				break
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
