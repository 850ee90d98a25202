package main

import (
	"fmt"

	"rmb/internal/core"
	"rmb/internal/loadgen"
	"rmb/internal/service"
	"rmb/internal/sim"
)

// expect is what the oracle says a job's result must be. Latency is
// left out on purpose: loadgen.Result.Latency serialises as {} today
// (metrics.Sample has only unexported fields), so there is nothing to
// compare. See README, findings.
type expect struct {
	stats     core.Stats
	submitted int
	delivered int
	saturated bool
}

func expectOf(r loadgen.Result) expect {
	return expect{stats: r.Stats, submitted: r.Submitted, delivered: r.Delivered, saturated: r.Saturated}
}

func (e expect) diff(r loadgen.Result) error {
	got := expectOf(r)
	if got == e {
		return nil
	}
	return fmt.Errorf("result differs from oracle: got submitted=%d delivered=%d saturated=%v stats=%+v, want submitted=%d delivered=%d saturated=%v stats=%+v",
		got.submitted, got.delivered, got.saturated, got.stats, e.submitted, e.delivered, e.saturated, e.stats)
}

var patterns = map[string]loadgen.DestFn{
	"":          loadgen.UniformDest,
	"uniform":   loadgen.UniformDest,
	"neighbour": loadgen.NeighbourDest,
	"hotspot":   loadgen.HotspotDest,
}

// loadgenConfig lowers a job spec the way the service does. The service
// keeps its own lowering unexported, so the harness has a second copy;
// a drift between the two shows as an oracle mismatch.
func loadgenConfig(spec service.JobSpec) (loadgen.Config, error) {
	fn, ok := patterns[spec.Workload.Pattern]
	if !ok {
		return loadgen.Config{}, fmt.Errorf("bench: unknown pattern %q", spec.Workload.Pattern)
	}
	w := spec.Workload
	return loadgen.Config{
		Rate:       w.Rate,
		PayloadLen: w.PayloadLen,
		Warmup:     sim.Tick(w.Warmup),
		Measure:    sim.Tick(w.Measure),
		Drain:      sim.Tick(w.Drain),
		Pattern:    fn,
		Seed:       w.Seed,
		Faults:     spec.Faults,
	}, nil
}

// oracle runs the spec uninterrupted on a fresh network under this
// commit's reference scheduler. It is a differential against the naive
// scheduler, not a frozen digest: a change that legitimately alters the
// model moves both sides.
func oracle(spec service.JobSpec) (*expect, error) {
	cfg := spec.Config
	cfg.Scheduler = core.SchedulerNaive
	n, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	lcfg, err := loadgenConfig(spec)
	if err != nil {
		return nil, err
	}
	res, err := loadgen.Run(n, lcfg)
	if err != nil {
		return nil, err
	}
	e := expectOf(res)
	return &e, nil
}

// precomputeOracle answers every oracleEach-th job, and every cycle of
// the checkpoint workload, before any daemon runs. Repeated keys share
// one answer.
func (p *plan) precomputeOracle() error {
	byKey := map[int]*expect{}
	for i := range p.jobs {
		if p.kind != ckptLoop && i%oracleEach != 0 {
			continue
		}
		j := &p.jobs[i]
		if e, ok := byKey[j.key]; ok {
			j.want = e
			p.oracleJobs++
			continue
		}
		e, err := oracle(j.spec)
		if err != nil {
			return fmt.Errorf("bench: oracle for job %d: %w", i, err)
		}
		byKey[j.key] = e
		j.want = e
		p.oracleJobs++
	}
	return nil
}
