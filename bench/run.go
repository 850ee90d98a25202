package main

import (
	"fmt"
	"time"

	"rmb/internal/service"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	seed    uint64
	seconds float64
	short   bool
	trace   bool
	opts    roundOpts
}

// metric is one reported number. N is the sample count behind Value;
// Min and Max are the extremes over rounds where Value is a median of
// rounds.
type metric struct {
	Name, Unit string
	Value      float64
	N          int
	Min, Max   float64
	// Probe marks a per-layer value that came from the traced run's
	// probe, not from the workload's own rounds.
	Probe bool
}

// result is what one workload's run produced.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string // the first few failures, for the reader
	metrics   []metric
	sim       simTotals
	// cacheHits is the submit-time hit count of the first plain round.
	cacheHits int
	rounds    int
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *result) find(name string) *metric {
	for i := range r.metrics {
		if r.metrics[i].Name == name {
			return &r.metrics[i]
		}
	}
	return nil
}

func (r *result) value(name string) (float64, bool) {
	if m := r.find(name); m != nil {
		return m.Value, true
	}
	return 0, false
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n, Min: v, Max: v})
}

// addRounds reports the median over rounds, with the extremes.
func (r *result) addRounds(name, unit string, perRound []float64) {
	lo, hi := minMax(perRound)
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: median(perRound), N: len(perRound), Min: lo, Max: hi})
}

func (r *result) noteErr(err error) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// simTotals are the simulator's own counts summed over a round's
// results. The simulator is deterministic, so for one seed they repeat
// exactly, on any machine, at any speed.
type simTotals struct {
	ticks, submitted, delivered, insertions, retries int64
	nacks, compactionMoves, headBlock, busySegment   int64
}

func totalsOf(r *round) simTotals {
	var t simTotals
	for _, o := range r.completed() {
		s := o.stats.Stats
		t.ticks += int64(s.Ticks)
		t.submitted += s.MessagesSubmitted
		t.delivered += s.Delivered
		t.insertions += s.Insertions
		t.retries += s.Retries
		t.nacks += s.Nacks
		t.compactionMoves += s.CompactionMoves
		t.headBlock += s.HeadBlockTicks
		t.busySegment += s.BusySegmentTicks
	}
	return t
}

// lateLimit is how late the open-loop generator may run (p95) before a
// round says more about the harness's scheduling than about rmbd.
const lateLimit = 5 * time.Millisecond

// sloLimit is the open-loop latency limit: slower arrivals, and failed
// ones, miss it.
const sloLimit = 25 * time.Millisecond

func latenessP95(r *round) time.Duration {
	return time.Duration(quantile(each(r.late, func(d time.Duration) float64 { return float64(d) }), 0.95))
}

// runWorkload sets the workload up, replays its plan in rounds until
// the time is spent, and reports. The plain run gives the end-to-end
// metrics; the traced run alternates plain and traced rounds and adds
// the in-process ladder to give the per-layer ones.
func runWorkload(e *env, name string, rc runConfig) (*result, error) {
	res := &result{workload: name}

	// Set-up is repeated so that setup_s is a median, not one sample.
	reps := 3
	if rc.short || rc.trace {
		reps = 1
	}
	var setups []float64
	var p *plan
	var pr *prepared
	var err error
	// pr is nil whenever a round owns (and stops) the daemon.
	defer func() { pr.stop() }()
	for i := 0; i < reps; i++ {
		pr.stop()
		start := time.Now()
		if p, err = buildPlan(name, rc.seed, rc.short); err != nil {
			return nil, err
		}
		if p.kind == childLoop {
			// The child's warm-up is one untimed regeneration.
			if !rc.short {
				if _, err := runChild(e, nil); err != nil {
					return nil, err
				}
			}
		} else if pr, err = prepare(e, p, rc.opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var plain, traced []*round
	var rec *spanRecorder
	if rc.trace {
		rec = newSpanRecorder()
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	rerun := false
	for {
		opts := rc.opts
		tracedRound := rc.trace && len(plain) > len(traced)
		if tracedRound {
			opts.rec = rec
		}
		r, err := runRound(e, p, opts, pr)
		pr = nil
		if err != nil {
			return nil, err
		}
		if p.kind == openLoop && !rerun && latenessP95(r) > lateLimit {
			// One second chance, then the numbers stand as measured.
			rerun = true
			continue
		}
		rerun = false
		if tracedRound {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if time.Now().After(deadline) && (!rc.trace || len(traced) > 0) {
			break
		}
	}

	all := append(append([]*round(nil), plain...), traced...)
	res.rounds = len(all)
	res.sim = totalsOf(all[0])
	for _, r := range all {
		if t := totalsOf(r); res.count(r) && t != res.sim {
			res.noteErr(fmt.Errorf("simulated totals differ between rounds of one plan: %+v and %+v", res.sim, t))
		}
	}
	for _, o := range plain[0].outcomes {
		if o.cached {
			res.cacheHits++
		}
	}

	res.addRounds("setup_s", "s", setups)
	res.endToEnd(plain)
	res.extras(plain)
	if !rc.trace {
		return res, nil
	}
	res.add("bench.build_s", "s", e.buildSec, 1)
	res.add("bench.oracle_checked_jobs", "count", float64(p.oracleJobs*len(all)), len(all))
	res.add("bench.trace_overhead_share", "ratio", 1-ratio(median(perRound(traced, jobsPerSec)), median(perRound(plain, jobsPerSec))), len(all))
	res.simMetrics()
	if p.kind == childLoop {
		err = res.childLayers(all, 3)
	} else {
		if err = res.servedLayers(p, traced, rec); err == nil {
			err = res.ladderLayers(p, traced[len(traced)-1].after.metrics)
		}
	}
	if err != nil {
		return nil, err
	}
	if err := res.probe(e, rc, rec, p.kind); err != nil {
		return nil, err
	}
	if err := writeSpans(e, rec); err != nil {
		return nil, err
	}
	return res, nil
}

func jobsPerSec(r *round) float64 { return float64(len(r.completed())) / r.wall.Seconds() }

func perRound(rs []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func pooledLatency(rs []*round) []float64 {
	var lat []float64
	for _, r := range rs {
		for _, o := range r.completed() {
			lat = append(lat, ms(o.latency))
		}
	}
	return lat
}

// endToEnd reports what a user of the system sees. Rates and per-round
// costs are medians over rounds; latency percentiles pool every round's
// samples.
func (res *result) endToEnd(rs []*round) {
	res.addRounds("jobs_per_s", "1/s", perRound(rs, jobsPerSec))
	lat := pooledLatency(rs)
	res.add("latency_p50_ms", "ms", quantile(lat, 0.50), len(lat))
	res.add("latency_p90_ms", "ms", quantile(lat, 0.90), len(lat))
	res.addRounds("cpu_ms_per_job", "ms", perRound(rs, func(r *round) float64 {
		return ratio(r.cpuSec*1000, float64(len(r.completed())))
	}))
	_, peak := minMax(perRound(rs, func(r *round) float64 { return r.rssPeakKB / 1024 }))
	res.add("rss_peak_mb", "MB", peak, len(rs))
}

// extras are user-visible numbers that exist for some workloads only,
// or that did not repeat well enough to carry a bound. They are printed
// by every run and reported as per-layer metrics by the traced one.
func (res *result) extras(rs []*round) {
	lat := pooledLatency(rs)
	res.add("latency_p95_ms", "ms", quantile(lat, 0.95), len(lat))
	res.add("failed_share", "ratio", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	res.addRounds("sim_ticks_per_s", "1/s", perRound(rs, func(r *round) float64 {
		var ticks int64
		for _, o := range r.completed() {
			if !o.cached {
				ticks += o.ticks
			}
		}
		return float64(ticks) / r.wall.Seconds()
	}))
	var ckpt, resume []float64
	for _, r := range rs {
		for _, o := range r.completed() {
			if o.ckptRTT > 0 {
				ckpt = append(ckpt, ms(o.ckptRTT))
				resume = append(resume, ms(o.resumeTime))
			}
		}
	}
	res.add("ckpt_ms_p50", "ms", median(ckpt), len(ckpt))
	res.add("resume_ms_p50", "ms", median(resume), len(resume))
	res.add("bench.round_spread_jobs_per_s", "ratio", func() float64 {
		v := perRound(rs, jobsPerSec)
		lo, hi := minMax(v)
		return ratio(hi-lo, median(v))
	}(), len(rs))
}

func (res *result) simMetrics() {
	t := res.sim
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"core.sim_ticks", t.ticks},
		{"core.sim_submitted", t.submitted},
		{"core.sim_delivered", t.delivered},
		{"core.sim_insertions", t.insertions},
		{"core.sim_retries", t.retries},
		{"core.sim_nacks", t.nacks},
		{"core.sim_compaction_moves", t.compactionMoves},
		{"core.sim_head_block_ticks", t.headBlock},
		{"core.sim_busy_segment_ticks", t.busySegment},
	} {
		res.add(m.name, "count", float64(m.v), 1)
	}
}

// timing extracts one field of the timings block from every outcome
// that has one and passes the filter.
func timing(os []outcome, keep func(outcome) bool, f func(*service.Timings) float64) []float64 {
	var out []float64
	for _, o := range os {
		if o.timings != nil && (keep == nil || keep(o)) {
			out = append(out, f(o.timings))
		}
	}
	return out
}

func ranOnWorker(o outcome) bool { return !o.cached }

// servedLayers turns the traced rounds and the ladder into the
// per-layer metrics of a served workload.
func (res *result) servedLayers(p *plan, traced []*round, rec *spanRecorder) error {
	var os []outcome
	calls := map[string][]float64{}
	var jobs, wall, busy float64
	var d struct{ httpSec, httpCount, reuse, cold, hits, misses, evict, mallocs, allocB, pauseNs, rssKB, rejected float64 }
	var late []float64
	sloMiss, arrivals := 0.0, 0.0
	polls := 0.0
	for _, r := range traced {
		ok := r.completed()
		os = append(os, ok...)
		jobs += float64(len(ok))
		wall += r.wall.Seconds()
		for name, ds := range r.calls {
			calls[name] = append(calls[name], each(ds, ms)...)
		}
		a, b := r.after, r.before
		d.httpSec += a.httpSec - b.httpSec
		d.httpCount += a.httpCount - b.httpCount
		d.reuse += float64(a.pool.Reuses - b.pool.Reuses)
		d.cold += float64(a.pool.ColdBuilds - b.pool.ColdBuilds)
		d.hits += float64(a.cache.Hits - b.cache.Hits)
		d.misses += float64(a.cache.Misses - b.cache.Misses)
		d.evict += float64(a.cache.Evictions - b.cache.Evictions)
		d.mallocs += float64(a.mem.Mallocs - b.mem.Mallocs)
		d.allocB += float64(a.mem.TotalAlloc - b.mem.TotalAlloc)
		d.pauseNs += float64(a.mem.PauseTotalNs - b.mem.PauseTotalNs)
		d.rssKB += r.rssGrowKB
		d.rejected += float64(r.rejected)
		late = append(late, each(r.late, ms)...)
		for _, o := range r.outcomes {
			arrivals++
			polls += float64(o.polls)
			if o.err != nil || o.latency > sloLimit {
				sloMiss++
			}
		}
	}
	for _, o := range os {
		if !o.cached && o.timings != nil {
			busy += o.timings.RunSec
		}
	}
	last := traced[len(traced)-1]
	n := len(os)

	for _, c := range []string{"submit", "status", "result", "trace"} {
		res.add("service.http_"+c+"_ms_p50", "ms", median(calls[c]), len(calls[c]))
	}
	res.add("service.http_server_ms_per_job", "ms", ratio(d.httpSec*1000, jobs), n)
	res.add("service.http_requests_per_job", "count", ratio(d.httpCount, jobs), n)
	sec := func(f func(*service.Timings) float64, scale float64, keep func(outcome) bool) []float64 {
		v := timing(os, keep, f)
		for i := range v {
			v[i] *= scale
		}
		return v
	}
	admission := sec(func(t *service.Timings) float64 { return t.AdmissionSec }, 1e6, nil)
	// A resumed job is admitted without a cache lookup; its 0 is absent, not fast.
	lookup := sec(func(t *service.Timings) float64 { return t.CacheLookupSec }, 1e6, func(o outcome) bool { return o.timings.CacheLookupSec > 0 })
	queue := sec(func(t *service.Timings) float64 { return t.QueueWaitSec }, 1e3, ranOnWorker)
	acquire := sec(func(t *service.Timings) float64 { return t.PoolAcquireSec }, 1e6, ranOnWorker)
	run := sec(func(t *service.Timings) float64 { return t.RunSec }, 1e3, ranOnWorker)
	seal := sec(func(t *service.Timings) float64 { return t.TraceStreamSec }, 1e6, func(o outcome) bool { return o.traceBytes > 0 })
	encode := sec(func(t *service.Timings) float64 { return t.ResultEncodeSec }, 1e6, nil)
	res.add("service.admission_us_p50", "us", median(admission), len(admission))
	res.add("service.cache_lookup_us_p50", "us", median(lookup), len(lookup))
	res.add("service.queue_wait_ms_p50", "ms", median(queue), len(queue))
	res.add("service.queue_wait_ms_p95", "ms", quantile(queue, 0.95), len(queue))
	res.add("service.pool_acquire_us_p50", "us", median(acquire), len(acquire))
	res.add("service.pool_reuse_share", "ratio", ratio(d.reuse, d.reuse+d.cold), n)
	res.add("service.cache_hit_share", "ratio", ratio(d.hits, d.hits+d.misses), n)
	res.add("service.cache_evictions", "count", d.evict, n)
	res.add("service.run_ms_p50", "ms", median(run), len(run))
	res.add("service.run_ms_p95", "ms", quantile(run, 0.95), len(run))
	res.add("service.trace_seal_us_p50", "us", median(seal), len(seal))
	res.add("service.result_encode_us_p50", "us", median(encode), len(encode))

	// The accounting: what the client waited for, minus every phase the
	// daemon stamped, is the residual (HTTP, JSON, polling gaps, the
	// harness itself). By construction the phases plus the residual sum
	// to the client latency, job by job.
	var residual []float64
	var residualSum, latencySum float64
	for _, o := range os {
		if o.timings == nil {
			continue
		}
		t := o.timings
		explained := t.AdmissionSec + t.QueueWaitSec + t.PoolAcquireSec + t.RunSec + t.TraceStreamSec + t.ResultEncodeSec
		r := o.latency.Seconds() - explained
		residual = append(residual, r*1e3)
		residualSum += r
		latencySum += o.latency.Seconds()
	}
	res.add("service.residual_ms_p50", "ms", median(residual), len(residual))
	res.add("service.residual_share", "ratio", ratio(residualSum, latencySum), len(residual))
	res.add("service.rejected_429", "count", d.rejected, n)
	res.add("service.allocs_per_job", "count", ratio(d.mallocs, jobs), n)
	res.add("service.alloc_kb_per_job", "KB", ratio(d.allocB/1024, jobs), n)
	res.add("service.gc_pause_ms_total", "ms", d.pauseNs/1e6, len(traced))
	res.add("service.rss_growth_kb_per_job", "KB", ratio(d.rssKB, jobs), n)
	res.add("service.metrics_scrape_ms_end", "ms", last.after.metricsMs, 1)

	var ckptBytes, resumeAdmit []float64
	var bodies [][]byte
	for _, o := range os {
		if o.ckptBody != nil {
			ckptBytes = append(ckptBytes, float64(len(o.ckptBody)))
			resumeAdmit = append(resumeAdmit, ms(o.resumeRTT))
			bodies = append(bodies, o.ckptBody)
		}
	}
	encMs, decMs, err := envelopeLadder(bodies)
	if err != nil {
		return err
	}
	restore := sec(func(t *service.Timings) float64 { return t.PoolAcquireSec }, 1e3,
		func(o outcome) bool { return o.timings.NetworkSource == "restore" })
	res.add("service.ckpt_bytes_p50", "B", median(ckptBytes), len(ckptBytes))
	res.add("service.ckpt_encode_ms_p50", "ms", median(encMs), len(encMs))
	res.add("service.ckpt_decode_ms_p50", "ms", median(decMs), len(decMs))
	res.add("service.resume_admit_ms_p50", "ms", median(resumeAdmit), len(resumeAdmit))
	res.add("service.restore_ms_p50", "ms", median(restore), len(restore))

	res.add("rmbd.start_ms", "ms", median(perRound(traced, func(r *round) float64 { return r.startMs })), len(traced))
	res.add("rmbd.worker_busy_share", "ratio", ratio(busy, wall), n)

	res.add("bench.gen_late_ms_p95", "ms", quantile(late, 0.95), len(late))
	res.add("bench.polls_per_job", "count", ratio(polls, arrivals), int(arrivals))
	self := rec.selfMs()
	res.add("bench.job_self_ms_p50", "ms", median(self), len(self))
	if p.kind == openLoop {
		res.add("bench.slo_miss_share", "ratio", ratio(sloMiss, arrivals), int(arrivals))
	}

	return nil
}

// ladderLayers reports the in-process ladder over the plan's first jobs.
func (res *result) ladderLayers(p *plan, metricsBody []byte) error {
	l, err := runLadder(p, metricsBody)
	if err != nil {
		return err
	}
	nl := len(l.newDriverUs)
	res.add("loadgen.new_driver_us_p50", "us", median(l.newDriverUs), nl)
	res.add("loadgen.step_ns_per_tick", "ns", ratio(l.stepNs, l.ticks), nl)
	res.add("loadgen.result_us_p50", "us", median(l.resultUs), nl)
	res.add("core.new_network_us_p50", "us", median(l.newNetworkUs), nl)
	res.add("core.reset_us_p50", "us", median(l.resetUs), nl)
	res.add("core.send_ns", "ns", ratio(l.sendNs, l.sends), int(l.sends))
	res.add("core.step_ns_per_tick", "ns", ratio(l.stepOnlyNs, l.stepOnlyTicks), int(l.stepOnlyTicks))
	res.add("core.step_ns_per_busy_segment_tick", "ns", ratio(l.stepOnlyNs, l.stepOnlyBusy), int(l.stepOnlyTicks))
	res.add("core.ckpt_marshal_ms_p50", "ms", median(l.ckptMarshalMs), len(l.ckptMarshalMs))
	res.add("core.ckpt_unmarshal_ms_p50", "ms", median(l.ckptRestoreMs), len(l.ckptRestoreMs))
	res.add("core.ckpt_bytes", "B", l.ckptBytes, 1)
	res.add("telemetry.append_event_ns", "ns", l.appendEventNs, nl)
	res.add("telemetry.writer_mb_per_s", "MB/s", l.writerMBps, nl)
	res.add("telemetry.trace_kb_per_job_p50", "KB", median(l.traceKB), nl)
	res.add("telemetry.events_per_job_p50", "count", median(l.traceEvents), nl)
	res.add("telemetry.traced_run_slowdown", "ratio", ratio(l.tracedStepNs, l.stepNs), nl)
	res.add("obs.observe_ns", "ns", l.observeNs, 1)
	res.add("obs.parse_exposition_ms", "ms", l.parseMs, 1)
	return nil
}

// childLayers reports the paper-artifacts workload's layers: the
// experiments run in process, and what the process around them costs.
func (res *result) childLayers(rs []*round, passes int) error {
	byID, total, err := experimentLadder(passes)
	if err != nil {
		return err
	}
	for _, id := range []string{"TH1", "GR1", "MS1", "rest"} {
		res.add("experiments."+id+"_ms", "ms", byID[id], passes)
	}
	res.add("rmbbench.process_overhead_ms", "ms", median(pooledLatency(rs))-total, passes)
	return nil
}

// probe measures the layers the workload itself never reaches, so that
// every traced run reports every layer of this commit: a short traced
// round of users-zipf-open (cache, traces, open loop) and one of
// ckpt-resume (the checkpoint path) for what a served workload leaves
// out, the in-process ladder for the child workload, and one rmbbench
// child plus one pass over the experiments for the served ones. Only
// metrics the workload's own rounds left without a sample are taken
// from it, and the table marks them.
func (res *result) probe(e *env, rc runConfig, rec *spanRecorder, kind loopKind) error {
	var sources []*result
	served, err := e.servedProbe(rc, rec)
	if err != nil {
		return err
	}
	sources = append(sources, served...)
	if kind != childLoop {
		child, err := e.childProbe(rec)
		if err != nil {
			return err
		}
		sources = append(sources, child)
	}
	for _, src := range sources {
		res.attempted += src.attempted
		res.failed += src.failed
		res.errs = append(res.errs, src.errs...)
	}
	for _, def := range perLayerDefs {
		own := res.find(def.Name)
		if own != nil && own.N > 0 {
			continue
		}
		for _, src := range sources {
			m := src.find(def.Name)
			if m == nil || m.N == 0 {
				continue
			}
			if own == nil {
				res.metrics = append(res.metrics, metric{})
				own = &res.metrics[len(res.metrics)-1]
			}
			*own = *m
			own.Probe = true
			break
		}
	}
	return nil
}

// count books a round's operations and reports whether all succeeded.
func (res *result) count(r *round) bool {
	clean := true
	res.attempted += len(r.outcomes)
	for _, o := range r.outcomes {
		if o.err != nil {
			res.failed++
			res.noteErr(o.err)
			clean = false
		}
	}
	return clean
}

// servedProbe runs the two short served rounds once per process and
// seed; a run of several workloads shares them.
func (e *env) servedProbe(rc runConfig, rec *spanRecorder) ([]*result, error) {
	if e.probeServed != nil && e.probeSeed == rc.seed {
		return e.probeServed, nil
	}
	opts := rc.opts
	opts.rec = rec
	var out []*result
	for _, name := range []string{wUsersZipf, wCkptResume} {
		p, err := buildPlan(name, rc.seed, true)
		if err != nil {
			return nil, err
		}
		r, err := runRound(e, p, opts, nil)
		if err != nil {
			return nil, err
		}
		src := &result{workload: name}
		src.extras([]*round{r})
		if err := src.servedLayers(p, []*round{r}, rec); err != nil {
			return nil, err
		}
		if name == wUsersZipf {
			if err := src.ladderLayers(p, r.after.metrics); err != nil {
				return nil, err
			}
		}
		src.count(r)
		out = append(out, src)
	}
	e.probeServed, e.probeSeed = out, rc.seed
	return out, nil
}

// childProbe runs one rmbbench child and one pass over the experiments,
// once per process.
func (e *env) childProbe(rec *spanRecorder) (*result, error) {
	if e.probeChild != nil {
		return e.probeChild, nil
	}
	r, err := runChild(e, rec)
	if err != nil {
		return nil, err
	}
	src := &result{workload: wArtifacts}
	if err := src.childLayers([]*round{r}, 1); err != nil {
		return nil, err
	}
	src.count(r)
	e.probeChild = src
	return src, nil
}
