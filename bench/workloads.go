package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"rmb/internal/core"
	"rmb/internal/service"
)

// The five workloads. Names are part of BENCHMARK.json.
const (
	wSweepSmall = "sweep-small"
	wSweepLarge = "sweep-large"
	wUsersZipf  = "users-zipf-open"
	wCkptResume = "ckpt-resume"
	wArtifacts  = "paper-artifacts"
)

var workloadNames = []string{wSweepSmall, wSweepLarge, wUsersZipf, wCkptResume, wArtifacts}

type loopKind int

const (
	closedLoop loopKind = iota // C clients, each waits for its reply
	openLoop                   // arrivals on a schedule at rate λ
	ckptLoop                   // closed loop of checkpoint/cancel/resume cycles
	childLoop                  // sequential runs of the rmbbench child
)

// job is one generated request. The daemon only ever sees body.
type job struct {
	body []byte
	spec service.JobSpec
	// key identifies the spec within the list: two jobs with the same
	// key carry the same bytes and must get the same response bytes.
	key int
	// want is the oracle's answer, or nil for a job that is not
	// cross-checked in process.
	want *expect
}

// plan is a workload's fixed inputs for one round. Every round of a run
// replays the same plan against a fresh daemon, so simulated totals and
// retained memory do not depend on how fast the daemon is.
type plan struct {
	name string
	kind loopKind
	conc int     // closed-loop clients
	rate float64 // open-loop arrivals per second
	jobs []job
	warm []job // untimed, sent to every fresh daemon before the round
	// ckptAtTick is the tick a ckptLoop cycle waits for before freezing.
	ckptAtTick int64
	// ladderJobs bounds the in-process ladder of the traced run.
	ladderJobs int
	oracleJobs int
}

type shape struct {
	nodes, buses int
	pattern      string
	rate         float64
	payload      int
	warmup       int64
	// measures are the measurement windows the shape's jobs cycle
	// through. They are fixed, not drawn: the seed decides what each job
	// simulates, never how much work the plan holds, so that a metric
	// means the same on every seed.
	measures    []int64
	drainIsMeas bool // drain = measure (0 selects loadgen's 100×N default)
}

// spec makes the shape's nth job.
func (s shape) spec(r *rand.Rand, nth int, trace bool) service.JobSpec {
	measure := s.measures[nth%len(s.measures)]
	w := service.WorkloadSpec{
		Rate:       s.rate,
		PayloadLen: s.payload,
		Warmup:     s.warmup,
		Measure:    measure,
		Pattern:    s.pattern,
		Seed:       r.Uint64(),
	}
	if s.drainIsMeas {
		w.Drain = measure
	}
	return service.JobSpec{
		Config:   core.Config{Nodes: s.nodes, Buses: s.buses, Seed: r.Uint64()},
		Workload: w,
		Trace:    trace,
	}
}

func newJob(spec service.JobSpec, key int) (job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return job{}, fmt.Errorf("bench: encoding job spec: %w", err)
	}
	return job{body: body, spec: spec, key: key}, nil
}

// largeMeasures keeps each configuration's jobs alike, so that the three
// configurations stay three separate latency classes and p50 and p90
// fall inside a class, not in the gap between two.
var largeMeasures = []int64{900, 1000, 1100}

var (
	small16 = shape{nodes: 16, buses: 3, pattern: "uniform", rate: 0.02, payload: 4, warmup: 50, measures: []int64{500}}
	small32 = shape{nodes: 32, buses: 4, pattern: "uniform", rate: 0.02, payload: 4, warmup: 50, measures: []int64{500}}
	small64 = shape{nodes: 64, buses: 4, pattern: "uniform", rate: 0.02, payload: 4, warmup: 50, measures: []int64{500}}
	// Traced catalogue entries run five times as long, which makes each
	// JSONL trace about 1 MB.
	traced16 = shape{nodes: 16, buses: 3, pattern: "uniform", rate: 0.02, payload: 4, warmup: 50, measures: []int64{2500}}

	// 1024×8 uniform at 0.002 saturates (retries, head blocking); the two
	// neighbour shapes keep many short virtual buses alive, which is what
	// keeps compaction busy.
	largeSat   = shape{nodes: 1024, buses: 8, pattern: "uniform", rate: 0.002, payload: 16, measures: largeMeasures, drainIsMeas: true}
	largeNbr   = shape{nodes: 1024, buses: 8, pattern: "neighbour", rate: 0.05, payload: 16, measures: largeMeasures, drainIsMeas: true}
	largeNbr4k = shape{nodes: 4096, buses: 8, pattern: "neighbour", rate: 0.05, payload: 16, measures: largeMeasures, drainIsMeas: true}

	// One ring, frozen mid-run. The daemon re-encodes the 3.5 MB
	// checkpoint on the HTTP goroutine while the worker steps on, so the
	// run must outlast the checkpoint round trip by a wide margin or the
	// cancel that follows finds the job already done.
	ckptRing = shape{nodes: 256, buses: 4, pattern: "neighbour", rate: 0.05, payload: 16, measures: []int64{16000}, drainIsMeas: true}
)

// sizes holds the per-round job counts; -short shrinks them for the
// smoke test.
type sizes struct {
	smallJobs, smallWarm int
	largeJobs, largeWarm int
	zipfArrivals         int
	zipfCatalogue        int
	zipfWarm             int
	ckptCycles, ckptWarm int
}

var (
	fullSizes  = sizes{smallJobs: 360, smallWarm: 20, largeJobs: 12, largeWarm: 1, zipfArrivals: 1500, zipfCatalogue: 4000, zipfWarm: 50, ckptCycles: 4, ckptWarm: 1}
	shortSizes = sizes{smallJobs: 48, smallWarm: 2, largeJobs: 3, largeWarm: 0, zipfArrivals: 120, zipfCatalogue: 200, zipfWarm: 4, ckptCycles: 1, ckptWarm: 0}
)

const (
	zipfRate   = 300.0 // arrivals per second
	zipfS      = 1.01
	zipfTraced = 4 // every 4th catalogue key is traced
	// zipfRankSeed fixes the arrival-rank sequence ("zipf" in ASCII).
	zipfRankSeed = 0x7a697066
	oracleEach   = 16
)

// buildPlan generates a workload's inputs from the seed and computes
// the oracle's answers. The same seed gives the same bytes.
func buildPlan(name string, seed uint64, short bool) (*plan, error) {
	sz := fullSizes
	if short {
		sz = shortSizes
	}
	// Each workload draws from its own stream so that adding a workload
	// does not shift another's inputs.
	var stream uint64
	for i, n := range workloadNames {
		if n == name {
			stream = uint64(i + 1)
		}
	}
	r := rand.New(rand.NewPCG(seed, stream))
	p := &plan{name: name}
	var err error
	switch name {
	case wSweepSmall:
		p.kind, p.conc, p.ladderJobs = closedLoop, 2, 200
		shapes := []shape{small16, small32, small64}
		err = p.fill(r, shapes, sz.smallJobs, sz.smallWarm)
	case wSweepLarge:
		p.kind, p.conc, p.ladderJobs = closedLoop, 1, 6
		shapes := []shape{largeSat, largeNbr, largeNbr4k}
		if short {
			shapes = shapes[:2]
		}
		err = p.fill(r, shapes, sz.largeJobs, sz.largeWarm)
	case wUsersZipf:
		p.kind, p.rate, p.ladderJobs = openLoop, zipfRate, 200
		err = p.fillZipf(r, sz)
	case wCkptResume:
		p.kind, p.conc, p.ladderJobs, p.ckptAtTick = ckptLoop, 1, 2, 1000
		ring := ckptRing
		if short {
			// Short enough for the smoke test; a cancel that lands after
			// the job finished is tolerated by the cycle.
			ring.measures = []int64{4000}
		}
		err = p.fill(r, []shape{ring}, sz.ckptCycles, sz.ckptWarm)
	case wArtifacts:
		// Every child's output is compared with the reference.
		p.kind, p.oracleJobs = childLoop, 1
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if err := p.precomputeOracle(); err != nil {
		return nil, err
	}
	return p, nil
}

// fill makes n unique jobs cycling the shapes, plus warm jobs per shape.
func (p *plan) fill(r *rand.Rand, shapes []shape, n, warmPerShape int) error {
	for i := 0; i < n; i++ {
		j, err := newJob(shapes[i%len(shapes)].spec(r, i/len(shapes), false), i)
		if err != nil {
			return err
		}
		p.jobs = append(p.jobs, j)
	}
	for i := 0; i < warmPerShape*len(shapes); i++ {
		j, err := newJob(shapes[i%len(shapes)].spec(r, 0, false), -1)
		if err != nil {
			return err
		}
		p.warm = append(p.warm, j)
	}
	return nil
}

// fillZipf draws arrivals Zipf(s) from a catalogue of 16×3 specs, so
// popular runs repeat (cache hits) and the tail does not (misses that
// queue behind one worker). Traced keys carry a JSONL trace big enough
// that a round's traced working set outgrows the 64 MiB run cache.
func (p *plan) fillZipf(r *rand.Rand, sz sizes) error {
	catalogue := make([]job, sz.zipfCatalogue)
	for k := range catalogue {
		sh, trace := small16, k%zipfTraced == 0
		if trace {
			sh = traced16
		}
		j, err := newJob(sh.spec(r, 0, trace), k)
		if err != nil {
			return err
		}
		catalogue[k] = j
	}
	// Which catalogue rank each arrival asks for is a fixed Zipf sample,
	// the same on every seed: the popularity structure (how many hits,
	// how many traced misses) is a parameter of the workload, like λ. The
	// seed decides what each catalogue entry simulates.
	z := rand.NewZipf(rand.New(rand.NewPCG(zipfRankSeed, 0)), zipfS, 1, uint64(sz.zipfCatalogue-1))
	for i := 0; i < sz.zipfArrivals; i++ {
		p.jobs = append(p.jobs, catalogue[z.Uint64()])
	}
	for i := 0; i < sz.zipfWarm; i++ {
		j, err := newJob(small16.spec(r, 0, false), -1)
		if err != nil {
			return err
		}
		p.warm = append(p.warm, j)
	}
	return nil
}
