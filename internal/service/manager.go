package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"rmb/internal/core"
	"rmb/internal/loadgen"
	"rmb/internal/telemetry"
)

// Sentinel errors surfaced through the API layer.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity; the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining is returned by Submit once a drain or close has begun.
	ErrDraining = errors.New("service: manager is draining")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("service: no such job")
	// ErrNotRunning is returned by Checkpoint for jobs with no live
	// simulation to serialize.
	ErrNotRunning = errors.New("service: job is not running")
	// ErrUnsupportedVersion is returned by DecodeCheckpoint for a
	// checkpoint written in another format version, including every
	// JSON (version 1) checkpoint. It is core's sentinel, so errors.Is
	// matches a version error from either layer.
	ErrUnsupportedVersion = core.ErrUnsupportedVersion
)

// Manager multiplexes simulation jobs over a bounded worker pool with a
// bounded admission queue. Each worker owns one network at a time; the
// manager itself never touches simulator state.
type Manager struct {
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue   chan *Job
	suspend chan struct{}
	wg      sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string
	nextID      int
	closed      bool // no further admissions
	queueClosed bool

	// pool parks finished networks for Reset-based reuse; cache memoizes
	// completed deterministic runs. Either may be nil (disabled).
	pool  *netPool
	cache *runCache

	// hist aggregates job phase spans into /metrics histograms; nil
	// with DisableObs. logger is the structured serving log sink; nil
	// disables logging. slowJob is the warn threshold for the run phase.
	hist    *svcHist
	logger  *slog.Logger
	slowJob time.Duration

	// afterTerminal, when set (by tests), runs on the worker right after
	// it publishes a job's terminal state.
	afterTerminal func(*Job)
}

// Options parameterizes a Manager beyond the worker/queue pair.
type Options struct {
	// Workers is the worker-pool size; QueueDepth the admission queue
	// capacity. Both must be positive.
	Workers    int
	QueueDepth int
	// PoolPerShape bounds the parked networks kept per (Nodes, Buses)
	// shape for Reset-based reuse. Zero selects Workers (a worker can
	// only ever return one network at a time, so more parked slots than
	// workers cannot be filled by a single-shape workload); negative
	// disables pooling entirely.
	PoolPerShape int
	// CacheBytes budgets the deterministic run cache (results plus trace
	// artifacts). Zero selects 64 MiB; negative disables caching.
	CacheBytes int64
	// Logger receives structured serving logs (job lifecycle, HTTP
	// requests, slow-job warnings). Nil disables logging entirely.
	Logger *slog.Logger
	// SlowJob is the run-phase duration past which a completed job
	// logs a warning; zero disables the check.
	SlowJob time.Duration
	// DisableObs turns off per-job phase timing and the latency
	// histograms. Its purpose is the zero-observer-effect
	// differential: results, traces and checkpoints must be
	// byte-identical either way, so production leaves it off.
	DisableObs bool
}

// DefaultCacheBytes is the run-cache budget Options.CacheBytes == 0
// selects.
const DefaultCacheBytes = 64 << 20

// NewManager starts a pool of workers serving a queue of the given
// depth, with default network pooling and run caching. Both arguments
// must be positive.
func NewManager(workers, depth int) (*Manager, error) {
	return NewManagerOpts(Options{Workers: workers, QueueDepth: depth})
}

// NewManagerOpts starts a manager with explicit serving options.
func NewManagerOpts(o Options) (*Manager, error) {
	if o.Workers < 1 {
		return nil, fmt.Errorf("service: worker count must be positive, got %d", o.Workers)
	}
	if o.QueueDepth < 1 {
		return nil, fmt.Errorf("service: queue depth must be positive, got %d", o.QueueDepth)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, o.QueueDepth),
		suspend:    make(chan struct{}),
		jobs:       make(map[string]*Job),
	}
	if o.PoolPerShape >= 0 {
		per := o.PoolPerShape
		if per == 0 {
			per = o.Workers
		}
		m.pool = newNetPool(per)
	}
	if o.CacheBytes >= 0 {
		budget := o.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		m.cache = newRunCache(budget)
	}
	if !o.DisableObs {
		m.hist = &svcHist{}
	}
	m.logger = o.Logger
	m.slowJob = o.SlowJob
	m.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// PoolStats snapshots the network pool's health counters (zero when
// pooling is disabled).
func (m *Manager) PoolStats() PoolStats {
	if m.pool == nil {
		return PoolStats{}
	}
	return m.pool.stats()
}

// CacheStats snapshots the run cache's health counters (zero when
// caching is disabled).
func (m *Manager) CacheStats() CacheStats {
	if m.cache == nil {
		return CacheStats{}
	}
	return m.cache.stats()
}

// newJob builds the cross-goroutine job shell (no simulator state yet).
func (m *Manager) newJob(spec JobSpec, resume *Checkpoint) *Job {
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		spec:    spec,
		created: time.Now(),
		resume:  resume,
		ctx:     ctx,
		cancel:  cancel,
		ckptReq: make(chan chan ckptReply),
		state:   StateQueued,
		obsOn:   m.hist != nil,
	}
	if spec.Trace {
		j.traceBuf = &bytes.Buffer{}
		j.traceW = telemetry.NewWriter(j.traceBuf)
	}
	return j
}

// assignIDLocked gives the job a free ID. Callers hold m.mu.
func (m *Manager) assignIDLocked(j *Job) {
	if _, taken := m.jobs[j.id]; j.id == "" || taken {
		// The counter can lag behind IDs brought in by Resume, so walk it
		// past every taken slot; an existing entry is never overwritten.
		for {
			m.nextID++
			id := fmt.Sprintf("j%d", m.nextID)
			if _, used := m.jobs[id]; !used {
				j.id = id
				break
			}
		}
	}
}

// admit registers the job and enqueues it without blocking; the queue
// being full is the backpressure signal.
func (m *Manager) admit(j *Job) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrDraining
	}
	m.assignIDLocked(j)
	if j.obsOn {
		// The queue-wait anchor. Set before the channel send: a worker
		// can pick the job up the instant it lands in the queue, and
		// the job is invisible to everyone else until then.
		j.enqueued = time.Now()
	}
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		return j, nil
	default:
		return nil, ErrQueueFull
	}
}

// admitCached registers a job served from the run cache: it never
// touches the worker queue (a cache hit must not consume a slot or wait
// behind real work) and is terminal — done, with the memoized result —
// the moment admission returns.
func (m *Manager) admitCached(j *Job, e *cacheEntry) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.assignIDLocked(j)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()
	j.fulfillFromCache(e)
	return j, nil
}

// Submit validates and admits a new job. A spec whose canonical content
// hash matches a completed run is served from the cache: the job comes
// back already done, carrying the memoized (bit-identical, by simulator
// determinism) result and trace, with Status.Cached set.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := m.newJob(spec, nil)
	var lookup time.Duration
	if m.cache != nil {
		lookupStart := time.Now()
		key, err := cacheKey(spec)
		var hit *cacheEntry
		var ok bool
		if err == nil {
			j.cacheKey = key
			hit, ok = m.cache.get(key, spec.Trace)
		}
		lookup = time.Since(lookupStart)
		if ok {
			j2, err := m.admitCached(j, hit)
			if err != nil {
				return nil, err
			}
			j2.stampTimings(func(t *Timings) {
				t.CacheLookupSec = lookup.Seconds()
				t.AdmissionSec = time.Since(start).Seconds()
			})
			if lg := m.jobLog(j2); lg != nil {
				lg.Info("job served from cache", slog.Int64("tick", j2.tick.Load()))
			}
			return j2, nil
		}
	}
	j, err := m.admit(j)
	if err != nil {
		return nil, err
	}
	j.stampTimings(func(t *Timings) {
		t.CacheLookupSec = lookup.Seconds()
		t.AdmissionSec = time.Since(start).Seconds()
	})
	if lg := m.jobLog(j); lg != nil {
		lg.Debug("job admitted")
	}
	return j, nil
}

// Resume admits a job that continues a checkpointed run. The original
// job ID is kept when free. An empty Core payload marks a job that was
// suspended before it started; it runs from scratch.
func (m *Manager) Resume(ck Checkpoint) (*Job, error) {
	if err := ck.Spec.Validate(); err != nil {
		return nil, err
	}
	resume := &ck
	if len(ck.Core) == 0 {
		resume = nil
	}
	start := time.Now()
	j := m.newJob(ck.Spec, resume)
	j.id = ck.ID
	j, err := m.admit(j)
	if err != nil {
		return nil, err
	}
	j.stampTimings(func(t *Timings) {
		t.AdmissionSec = time.Since(start).Seconds()
	})
	if lg := m.jobLog(j); lg != nil {
		lg.Debug("job resumed from checkpoint")
	}
	return j, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests a job stop; terminal jobs are left untouched.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.Cancel()
	return nil
}

// Checkpoint serializes a running job at its next tick boundary without
// stopping it. Queued or terminal jobs return ErrNotRunning.
func (m *Manager) Checkpoint(ctx context.Context, id string) (*Checkpoint, error) {
	data, err := m.CheckpointBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// CheckpointBytes is Checkpoint in its wire form: the EncodeCheckpoint
// bytes the worker produced, handed over without a decode/re-encode
// round trip.
func (m *Manager) CheckpointBytes(ctx context.Context, id string) ([]byte, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	// A queued job has no worker listening on ckptReq; without this check
	// the send below would block for the whole queue wait.
	if j.Status().State != StateRunning {
		return nil, ErrNotRunning
	}
	reply := make(chan ckptReply, 1)
	select {
	case j.ckptReq <- reply:
	case <-j.ctx.Done():
		return nil, ErrNotRunning
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-reply:
		return r.data, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Drain stops admissions, asks every worker to suspend its current job
// at the next tick boundary, lets the queue empty (queued jobs suspend
// without starting), and waits for the pool to exit. It returns the
// checkpoints of every suspended job, ready to persist and Resume in a
// later process. Respect ctx to bound the wait.
func (m *Manager) Drain(ctx context.Context) ([]Checkpoint, error) {
	m.beginShutdown(true)
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
	var cks []Checkpoint
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		if j.state == StateSuspended && j.ckpt != nil {
			cks = append(cks, *j.ckpt)
		}
		j.mu.Unlock()
	}
	return cks, nil
}

// Close cancels every job and stops the pool without checkpointing.
func (m *Manager) Close() {
	m.baseCancel()
	m.beginShutdown(false)
	m.wg.Wait()
}

// beginShutdown stops admissions and releases the workers' loops; with
// suspend=true running jobs checkpoint instead of cancelling.
func (m *Manager) beginShutdown(suspend bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.closed = true
		if suspend {
			close(m.suspend)
		}
	}
	if !m.queueClosed {
		m.queueClosed = true
		close(m.queue)
	}
}

// worker serves jobs until the queue closes and empties.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// suspended reports whether a drain has been requested.
func (m *Manager) suspended() bool {
	select {
	case <-m.suspend:
		return true
	default:
		return false
	}
}

// runJob owns one job end to end: build (or restore) the simulator,
// step it with per-tick cancellation/deadline/checkpoint checks, and
// record the terminal state. All simulator state stays local to this
// goroutine; only Status/Result/Trace snapshots cross out, under the
// job lock.
func (m *Manager) runJob(j *Job) {
	// Cancel the job context on every exit path: it releases any timeout
	// timer, and it is what tells a blocked Checkpoint caller that no
	// worker will ever pick up its request (ErrNotRunning).
	defer j.cancel()
	if j.ctx.Err() != nil {
		m.finishJob(j, StateCanceled, nil, "canceled while queued", nil)
		return
	}
	if m.suspended() {
		// Drain hit before the job started. A job resumed from a mid-run
		// checkpoint parks that original checkpoint (its progress lives
		// there); a fresh job parks an empty core payload, which Resume
		// runs from scratch.
		if j.resume != nil {
			ck := *j.resume
			ck.ID = j.id
			j.finishSuspended(&ck)
			return
		}
		j.finishSuspended(&Checkpoint{ID: j.id, Spec: j.spec})
		return
	}
	queueWait, ok := j.setRunning()
	if !ok {
		return
	}
	if m.hist != nil {
		m.hist.queue.Observe(queueWait)
	}

	var rec core.Recorder
	if j.spec.Trace {
		rec = &telemetry.Adapter{Observe: j.observe}
	}

	var d *loadgen.Driver
	var source string
	if j.resume != nil {
		// Restore: pending fault timers live in the core checkpoint, so
		// the plan is NOT re-injected, and the driver RNG resumes from
		// its serialized position.
		restoreStart := time.Now()
		n, err := m.restoreNetwork(j.spec.Config, j.resume.Core)
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
		driver := j.resume.Driver
		j.resume = nil
		source = "restore"
		j.stampTimings(func(t *Timings) {
			t.NetworkSource = source
			t.PoolAcquireSec = time.Since(restoreStart).Seconds()
		})
		// A restored network is an ordinary network; it parks in the pool
		// like a pooled-built one once the job ends.
		defer m.releaseNetwork(n)
		n.SetRecorder(rec)
		lcfg, err := j.spec.Workload.loadgenConfig(core.FaultPlan{})
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
		d, err = loadgen.ResumeDriver(n, lcfg, driver)
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
		j.tick.Store(int64(n.Now()))
	} else {
		cfg := j.spec.Config
		cfg.Recorder = rec
		acquireStart := time.Now()
		n, reused, err := m.acquireNetwork(cfg)
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
		source = "cold"
		if reused {
			source = "reuse"
		}
		j.stampTimings(func(t *Timings) {
			t.NetworkSource = source
			t.PoolAcquireSec = time.Since(acquireStart).Seconds()
		})
		defer m.releaseNetwork(n)
		lcfg, err := j.spec.Workload.loadgenConfig(j.spec.Faults)
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
		d, err = loadgen.NewDriver(n, lcfg)
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
	}
	if lg := m.jobLog(j); lg != nil {
		lg.Debug("job started",
			slog.String("network", source),
			slog.Duration("queueWait", queueWait))
	}
	j.markRunStart()

	// The wall-clock deadline starts when the job starts running, so
	// queue wait does not eat the budget.
	ctx := j.ctx
	if j.spec.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutSec)*time.Second)
		defer cancel()
	}

	for {
		// Control plane first, then one tick. Every arm observes the
		// simulation at a tick boundary, where checkpoints are legal.
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				m.finishJob(j, StateFailed, nil, "deadline exceeded", nil)
			} else {
				m.finishJob(j, StateCanceled, nil, "canceled", nil)
			}
			return
		case <-m.suspend:
			data, err := freezeJob(j, d)
			var ck *Checkpoint
			if err == nil {
				ck, err = DecodeCheckpoint(data)
			}
			if err != nil {
				m.finishJob(j, StateFailed, nil, fmt.Sprintf("suspend: %v", err), nil)
				return
			}
			j.finishSuspended(ck)
			return
		case reply := <-j.ckptReq:
			data, err := freezeJob(j, d)
			reply <- ckptReply{data: data, err: err}
			continue
		default:
		}
		more, err := d.Step()
		j.tick.Store(int64(d.Network().Now()))
		if err != nil {
			m.finishJob(j, StateFailed, nil, err.Error(), nil)
			return
		}
		if !more {
			res := d.Result()
			m.finishJob(j, StateDone, &res, "", func() {
				m.cacheInsert(j, &res, int64(d.Network().Now()))
			})
			return
		}
	}
}

// acquireNetwork builds or re-arms a network for a fresh run, through
// the pool when one is configured. reused reports whether a parked
// network answered (the "reuse" vs "cold" timing label).
func (m *Manager) acquireNetwork(cfg core.Config) (n *core.Network, reused bool, err error) {
	if m.pool == nil {
		n, err = core.NewNetwork(cfg)
		return n, false, err
	}
	return m.pool.acquire(cfg)
}

// restoreNetwork rebuilds a resumed job's network from its core
// checkpoint, into a parked network of the spec's shape when pooling is
// on.
func (m *Manager) restoreNetwork(shape core.Config, data []byte) (*core.Network, error) {
	if m.pool == nil {
		return core.UnmarshalCheckpoint(data)
	}
	return m.pool.restore(shape, data)
}

// releaseNetwork returns a job's network when the job ends, parking it
// for reuse when pooling is on.
func (m *Manager) releaseNetwork(n *core.Network) {
	if m.pool != nil {
		m.pool.release(n)
	}
}

// cacheInsert memoizes a completed Submit-path run (resumed jobs carry
// no cache key: their trace covers only the post-resume span, so they
// are never memoized). It runs between the job's seal and publish, so
// the entry takes the sealed trace by reference and is in the cache
// before anyone can see the job done.
func (m *Manager) cacheInsert(j *Job, res *loadgen.Result, finalTick int64) {
	if m.cache == nil || j.cacheKey == "" {
		return
	}
	e := &cacheEntry{key: j.cacheKey, result: *res, finalTick: finalTick}
	if j.spec.Trace {
		trace, _ := j.Trace()
		e.trace = trace
		e.hasTrace = true
		e.traceEvents = j.traceEventCount()
	}
	m.cache.put(e)
}

// freezeJob encodes the job's full resumable state at the current tick
// boundary as EncodeCheckpoint bytes: the envelope header, then the core
// checkpoint appended in place, so the bytes are written once.
func freezeJob(j *Job, d *loadgen.Driver) ([]byte, error) {
	buf, err := appendEnvelope(nil, &Checkpoint{ID: j.id, Spec: j.spec, Driver: d.State()}, 0)
	if err != nil {
		return nil, err
	}
	return d.Network().AppendCheckpoint(buf)
}
