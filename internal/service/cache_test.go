package service

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rmb/internal/core"
	"rmb/internal/loadgen"
)

// TestCacheHitByteIdentical is the serving-path determinism proof: a
// resubmitted spec is served from the cache with a result and trace
// byte-identical to the fresh run, marked Cached, without consuming a
// worker.
func TestCacheHitByteIdentical(t *testing.T) {
	m, err := NewManager(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := chaosSpec(5) // traced, with faults
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, first); st.State != StateDone || st.Cached {
		t.Fatalf("first run: %+v", st)
	}
	wantRes, _ := first.Result()
	wantTrace, _ := first.Trace()
	if len(wantTrace) == 0 {
		t.Fatal("traced chaos run captured no events")
	}
	wantStatus := first.Status()

	second, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("second submission not served from cache: %+v", st)
	}
	gotRes, ok := second.Result()
	if !ok || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("cached result diverged:\n got:  %+v\n want: %+v", gotRes, wantRes)
	}
	gotTrace, ok := second.Trace()
	if !ok || !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("cached trace not byte-identical (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
	if st.TraceEvents != wantStatus.TraceEvents {
		t.Fatalf("cached TraceEvents %d, want %d", st.TraceEvents, wantStatus.TraceEvents)
	}
	if st.Tick != wantStatus.Tick {
		t.Fatalf("cached Tick %d, want %d", st.Tick, wantStatus.Tick)
	}

	// An untraced submission of the same spec is served by the same entry.
	untraced := spec
	untraced.Trace = false
	third, err := m.Submit(untraced)
	if err != nil {
		t.Fatal(err)
	}
	if st := third.Status(); st.State != StateDone || !st.Cached {
		t.Fatalf("untraced resubmission missed: %+v", st)
	}

	// A different scheduler for the same simulation shares the cache line:
	// schedulers are bit-identical by the repo's differential contract.
	other := spec
	other.Config.Scheduler = core.SchedulerNaive
	fourth, err := m.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if st := fourth.Status(); st.State != StateDone || !st.Cached {
		t.Fatalf("scheduler variant missed the cache: %+v", st)
	}

	cs := m.CacheStats()
	if cs.Hits != 3 || cs.Insertions != 1 {
		t.Fatalf("cache stats: %+v (want 3 hits, 1 insertion)", cs)
	}
}

// TestCacheTracelessUpgrade: a traced submission must not be served by
// a traceless entry; the traced rerun upgrades the entry in place so
// later traced submissions hit.
func TestCacheTracelessUpgrade(t *testing.T) {
	m, err := NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	untraced := chaosSpec(7)
	untraced.Trace = false
	j1, err := m.Submit(untraced)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j1); st.State != StateDone {
		t.Fatal(st)
	}

	traced := untraced
	traced.Trace = true
	j2, err := m.Submit(traced)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j2)
	if st.Cached {
		t.Fatal("traced submission was served by a traceless entry")
	}
	trace2, _ := j2.Trace()

	j3, err := m.Submit(traced)
	if err != nil {
		t.Fatal(err)
	}
	if st := j3.Status(); !st.Cached {
		t.Fatalf("post-upgrade traced submission missed: %+v", st)
	}
	trace3, _ := j3.Trace()
	if !bytes.Equal(trace2, trace3) {
		t.Fatal("upgraded entry's trace differs from its producer's")
	}
	// Both runs computed identical results (determinism), so the upgrade
	// replaced the value without a second logical entry.
	if cs := m.CacheStats(); cs.Insertions != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats after upgrade: %+v", cs)
	}
}

// TestCacheKeyCanonicalization pins the content-address rules from
// DESIGN.md §15.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := func() JobSpec {
		return JobSpec{
			Name:   "a",
			Config: core.Config{Nodes: 12, Buses: 3, Seed: 9},
			Workload: WorkloadSpec{
				Rate: 0.01, PayloadLen: 4, Warmup: 10, Measure: 100, Seed: 9,
			},
		}
	}
	key := func(t *testing.T, s JobSpec) string {
		t.Helper()
		k, err := cacheKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key(t, base())

	same := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"name ignored", func(s *JobSpec) { s.Name = "completely-different" }},
		{"timeout ignored", func(s *JobSpec) { s.TimeoutSec = 30 }},
		{"trace ignored", func(s *JobSpec) { s.Trace = true }},
		{"explicit config defaults", func(s *JobSpec) {
			s.Config.CompactionPeriod = 1
			s.Config.MaxSendPerNode = 1
			s.Config.MaxRecvPerNode = 1
			s.Config.RetryBase = 4
			s.Config.RetryCap = 256
			s.Config.FlitCycle = 1
			s.Config.HeadTimeout = 4 * s.Config.Nodes
			s.Config.JitterMax = 3
		}},
		{"scheduler ignored", func(s *JobSpec) { s.Config.Scheduler = core.SchedulerSharded }},
		{"workers ignored", func(s *JobSpec) {
			s.Config.Scheduler = core.SchedulerSharded
			s.Config.Workers = 7
		}},
		{"audit ignored", func(s *JobSpec) { s.Config.Audit = true }},
		{"uniform alias", func(s *JobSpec) { s.Workload.Pattern = "uniform" }},
		{"drain default", func(s *JobSpec) { s.Workload.Drain = 100 * int64(s.Config.Nodes) }},
	}
	for _, tc := range same {
		s := base()
		tc.mut(&s)
		if got := key(t, s); got != want {
			t.Errorf("%s: key changed", tc.name)
		}
	}

	// The neighbour aliases collapse onto each other (but not onto
	// uniform).
	a, b := base(), base()
	a.Workload.Pattern = "neighbor"
	b.Workload.Pattern = "neighbour"
	if key(t, a) != key(t, b) {
		t.Error("neighbor/neighbour aliases hash differently")
	}
	if key(t, a) == want {
		t.Error("neighbour pattern collides with uniform")
	}

	diff := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"seed", func(s *JobSpec) { s.Config.Seed = 10 }},
		{"nodes", func(s *JobSpec) { s.Config.Nodes = 13 }},
		{"rate", func(s *JobSpec) { s.Workload.Rate = 0.02 }},
		{"workload seed", func(s *JobSpec) { s.Workload.Seed = 10 }},
		{"measure", func(s *JobSpec) { s.Workload.Measure = 101 }},
		{"explicit drain", func(s *JobSpec) { s.Workload.Drain = 7 }},
		{"faults", func(s *JobSpec) {
			s.Faults = core.FaultPlan{Events: []core.FaultEvent{
				{At: 5, Kind: core.FaultSegmentFail, Node: 1, Level: 0},
			}}
		}},
	}
	for _, tc := range diff {
		s := base()
		tc.mut(&s)
		if got := key(t, s); got == want {
			t.Errorf("%s: change did not change the key", tc.name)
		}
	}
}

// TestRunCacheLRU exercises the byte-budgeted LRU in isolation:
// insertion accounting, recency-ordered eviction, touch-on-get, the
// traceless→traced upgrade, rejection of over-budget entries, and the
// per-entry charge (trace plus latency samples plus overhead).
func TestRunCacheLRU(t *testing.T) {
	entry := func(key string, traceLen int) *cacheEntry {
		return &cacheEntry{
			key: key, result: loadgen.Result{Submitted: 1},
			trace: bytes.Repeat([]byte("x"), traceLen), hasTrace: true,
		}
	}
	// Budget fits exactly two bare entries.
	c := newRunCache(2 * entryOverhead)
	c.put(entry("a", 0))
	c.put(entry("b", 0))
	if _, ok := c.get("a", true); !ok {
		t.Fatal("a evicted prematurely")
	}
	// a is now MRU; inserting c must evict b, not a.
	c.put(entry("c", 0))
	if _, ok := c.get("b", false); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.get("a", true); !ok {
		t.Fatal("touched entry a was evicted")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 2*entryOverhead {
		t.Fatalf("stats after eviction: %+v", st)
	}

	// Over-budget entries are refused outright.
	c.put(entry("huge", 3*entryOverhead))
	if _, ok := c.get("huge", false); ok {
		t.Fatal("over-budget entry admitted")
	}

	// Upgrade: traceless then traced under the same key swaps in place.
	u := newRunCache(1 << 20)
	bare := entry("k", 0)
	bare.hasTrace = false
	bare.trace = nil
	u.put(bare)
	if _, ok := u.get("k", true); ok {
		t.Fatal("traceless entry served a traced lookup")
	}
	u.put(entry("k", 100))
	e, ok := u.get("k", true)
	if !ok || len(e.trace) != 100 {
		t.Fatal("upgrade did not install the traced entry")
	}
	// A second traced put under the same key is a no-op (results are
	// bit-identical by determinism; nothing to replace).
	u.put(entry("k", 200))
	if e, _ := u.get("k", true); len(e.trace) != 100 {
		t.Fatal("duplicate traced put replaced the entry")
	}
	if st := u.stats(); st.Insertions != 1 || st.Entries != 1 || st.Bytes != entryOverhead+100 {
		t.Fatalf("upgrade accounting: %+v", st)
	}

	// The charge covers everything an entry pins: trace bytes, eight
	// bytes per latency sample, and the fixed overhead.
	withLatency := func(key string, traceLen, samples int) *cacheEntry {
		e := entry(key, traceLen)
		for i := 0; i < samples; i++ {
			e.result.Latency.Add(float64(i))
		}
		return e
	}
	l := newRunCache(1 << 20)
	l.put(withLatency("lat", 300, 800))
	if got, want := l.stats().Bytes, int64(300+8*800+entryOverhead); got != want {
		t.Fatalf("entry with 800 latency samples charged %d bytes, want %d", got, want)
	}
	// Latency samples alone can push an entry over the whole budget.
	c.put(withLatency("samples", 0, entryOverhead/8*3))
	if _, ok := c.get("samples", false); ok {
		t.Fatal("entry over budget by its latency samples was admitted")
	}
}

// TestPoolReuseAndDisable pins the pool lifecycle: sequential same-shape
// jobs re-arm one network (one cold build), a disabled pool builds every
// time, and disabling never affects results.
func TestPoolReuseAndDisable(t *testing.T) {
	runJobs := func(t *testing.T, m *Manager, n int) []loadgen.Result {
		t.Helper()
		out := make([]loadgen.Result, 0, n)
		for i := 0; i < n; i++ {
			j, err := m.Submit(smallSpec(42)) // identical spec each time
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, j); st.State != StateDone {
				t.Fatalf("job %d: %+v", i, st)
			}
			res, _ := j.Result()
			out = append(out, res)
		}
		return out
	}

	pooled, err := NewManagerOpts(Options{Workers: 1, QueueDepth: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	pooledRes := runJobs(t, pooled, 3)
	ps := pooled.PoolStats()
	if ps.ColdBuilds != 1 || ps.Reuses != 2 {
		t.Fatalf("pooled stats: %+v (want 1 cold build, 2 reuses)", ps)
	}
	if ps.Size != 1 {
		t.Fatalf("pool parked %d networks, want 1", ps.Size)
	}

	bare, err := NewManagerOpts(Options{Workers: 1, QueueDepth: 4, PoolPerShape: -1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	bareRes := runJobs(t, bare, 3)
	bs := bare.PoolStats()
	if bs != (PoolStats{}) {
		t.Fatalf("disabled pool reported stats: %+v", bs)
	}

	for i := range pooledRes {
		if !reflect.DeepEqual(pooledRes[i], bareRes[i]) {
			t.Fatalf("run %d: pooled result diverged from unpooled", i)
		}
	}
	if !reflect.DeepEqual(pooledRes[0], pooledRes[2]) {
		t.Fatal("reused-network run diverged from cold run")
	}
}

// TestPoolRestore covers a resume drawing its network from the pool: a
// parked network of the spec's shape, abandoned mid-run by another job,
// takes the checkpoint in place and then runs exactly like the network
// UnmarshalCheckpoint builds. A parked network that refuses the bytes is
// dropped and the pool falls back to UnmarshalCheckpoint, which reports
// corrupt bytes and restores a checkpoint of another shape.
func TestPoolRestore(t *testing.T) {
	spec := chaosSpec(5)
	ck, err := DecodeCheckpoint(jobCheckpointAt(t, "j1", spec, 300))
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(core.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	finish := func(n *core.Network) loadgen.Result {
		t.Helper()
		d, err := loadgen.ResumeDriver(n, lcfg, ck.Driver)
		if err != nil {
			t.Fatal(err)
		}
		for {
			more, err := d.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				return d.Result()
			}
		}
	}
	fresh, err := core.UnmarshalCheckpoint(ck.Core)
	if err != nil {
		t.Fatal(err)
	}
	want := finish(fresh)

	p := newNetPool(1)
	other := chaosSpec(8)
	dirty, err := core.NewNetwork(other.Config)
	if err != nil {
		t.Fatal(err)
	}
	ocfg, err := other.Workload.loadgenConfig(other.Faults)
	if err != nil {
		t.Fatal(err)
	}
	od, err := loadgen.NewDriver(dirty, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	for dirty.Now() < 200 {
		if _, err := od.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p.release(dirty)

	n, err := p.restore(spec.Config, ck.Core)
	if err != nil {
		t.Fatal(err)
	}
	if n != dirty {
		t.Fatal("restore built a new network while one of its shape was parked")
	}
	if got := finish(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("run restored into a parked network diverged:\n got:  %+v\n want: %+v", got.Stats, want.Stats)
	}
	if ps := p.stats(); ps.Reuses != 1 || ps.Size != 0 {
		t.Fatalf("pool stats after restore: %+v", ps)
	}

	p.release(n)
	bad := append([]byte(nil), ck.Core...)
	bad[len(bad)-1] ^= 1
	if _, err := p.restore(spec.Config, bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checkpoint: got %v, want a checksum error", err)
	}
	if ps := p.stats(); ps.Size != 0 || ps.Reuses != 1 {
		t.Fatalf("network that refused a corrupt checkpoint was kept or counted: %+v", ps)
	}

	small, err := core.NewNetwork(core.Config{Nodes: 8, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.release(small)
	n, err = p.restore(core.Config{Nodes: 8, Buses: 2}, ck.Core)
	if err != nil {
		t.Fatal(err)
	}
	if n == small || n.Config().Nodes != spec.Config.Nodes {
		t.Fatalf("checkpoint of another shape restored into the parked %d-node network", small.Config().Nodes)
	}
	if got := finish(n); !reflect.DeepEqual(got, want) {
		t.Fatal("fallback restore diverged from UnmarshalCheckpoint")
	}
}

// TestPoolConcurrentRecycling floods a small pooled manager with ≥10
// jobs across two shapes — half canceled mid-flight, half run to
// completion — then does it again, so workers constantly recycle
// networks that previous jobs abandoned in a dirty state. Run under
// -race this doubles as the pool's data-race proof; completed results
// must still match a bare single-threaded run.
func TestPoolConcurrentRecycling(t *testing.T) {
	spec := smallSpec(11)
	bareNet, err := core.NewNetwork(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := spec.Workload.loadgenConfig(spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadgen.Run(bareNet, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewManagerOpts(Options{Workers: 4, QueueDepth: 32, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for round := 0; round < 2; round++ {
		var long, short []*Job
		for i := 0; i < 6; i++ {
			lj, err := m.Submit(longSpec(uint64(round*10 + i)))
			if err != nil {
				t.Fatal(err)
			}
			long = append(long, lj)
			sj, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			short = append(short, sj)
		}
		for _, j := range long {
			j.Cancel()
		}
		for _, j := range short {
			if st := waitTerminal(t, j); st.State != StateDone {
				t.Fatalf("round %d: short job %s: %+v", round, j.ID(), st)
			}
			res, _ := j.Result()
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("round %d: recycled-network result diverged from bare run", round)
			}
		}
		for _, j := range long {
			waitTerminal(t, j)
		}
	}
	ps := m.PoolStats()
	if ps.ResetFailures != 0 {
		t.Fatalf("reset failures during recycling: %+v", ps)
	}
	if ps.Reuses == 0 {
		t.Fatalf("no pooled reuse happened: %+v", ps)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition: well-formed
// HELP/TYPE framing, every serving metric present, and counters that
// actually move with traffic.
func TestMetricsEndpoint(t *testing.T) {
	m, err := NewManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	spec := smallSpec(3)
	for i := 0; i < 2; i++ { // second submission is a cache hit
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	samples := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[name] = val
	}
	for _, want := range []string{
		"rmbd_pool_networks", "rmbd_pool_reuses_total", "rmbd_pool_cold_builds_total",
		"rmbd_pool_reset_failures_total", "rmbd_pool_discards_total",
		"rmbd_cache_hits_total", "rmbd_cache_misses_total", "rmbd_cache_evictions_total",
		"rmbd_cache_insertions_total", "rmbd_cache_bytes", "rmbd_cache_budget_bytes",
		"rmbd_cache_entries", `rmbd_jobs{state="done"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
	if samples["rmbd_cache_hits_total"] != "1" {
		t.Errorf("rmbd_cache_hits_total = %s, want 1", samples["rmbd_cache_hits_total"])
	}
	if samples["rmbd_pool_cold_builds_total"] != "1" {
		t.Errorf("rmbd_pool_cold_builds_total = %s, want 1", samples["rmbd_pool_cold_builds_total"])
	}
	if samples[`rmbd_jobs{state="done"}`] != "2" {
		t.Errorf("done gauge = %s, want 2", samples[`rmbd_jobs{state="done"}`])
	}
	// HELP/TYPE framing precedes every metric family.
	if !strings.Contains(body, "# HELP rmbd_cache_hits_total ") ||
		!strings.Contains(body, "# TYPE rmbd_cache_hits_total counter") ||
		!strings.Contains(body, "# TYPE rmbd_jobs gauge") {
		t.Error("missing HELP/TYPE framing")
	}
}

// TestCachedBeforeDone: a job reads as done only once its run is in the
// cache. A client that sees "done" and resubmits the same spec must be
// served from the cache every time; the worker hook resubmits at the
// earliest moment a client could, right after the terminal state is
// published.
func TestCachedBeforeDone(t *testing.T) {
	m, err := NewManager(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	type outcome struct {
		id  string
		st  Status
		err error
	}
	seen := make(chan outcome, 64)
	m.afterTerminal = func(j *Job) {
		if j.Status().State != StateDone || j.cacheKey == "" {
			return
		}
		j2, err := m.Submit(j.spec)
		if err != nil {
			seen <- outcome{id: j.ID(), err: err}
			return
		}
		seen <- outcome{id: j.ID(), st: j2.Status()}
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		spec := smallSpec(uint64(100 + i))
		spec.Workload.Measure = 200
		spec.Trace = i%2 == 0
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < jobs; i++ {
		var o outcome
		select {
		case o = <-seen:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d jobs finished", i, jobs)
		}
		if o.err != nil {
			t.Fatalf("resubmitting %s: %v", o.id, o.err)
		}
		if o.st.State != StateDone || !o.st.Cached {
			t.Fatalf("resubmission of done job %s missed the cache: %+v", o.id, o.st)
		}
	}
}
