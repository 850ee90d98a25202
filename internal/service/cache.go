package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"sync/atomic"

	"rmb/internal/core"
	"rmb/internal/loadgen"
)

// The run cache memoizes completed simulations. A run here is a pure
// function of (network config, workload, fault plan): the simulator is
// deterministic by construction — the property the 32-seed differentials
// and checkpoint tests pin — so two submissions with the same canonical
// spec provably produce bit-identical results and traces, and the second
// can be served from memory. Entries are content-addressed by a SHA-256
// over the canonical spec JSON and held in a byte-budgeted LRU.
//
// Canonicalization rules (DESIGN.md §15):
//
//   - Name, TimeoutSec and Trace are excluded: they do not influence the
//     simulation. Trace availability is handled per entry — a traced
//     submission only hits an entry that carries trace bytes.
//   - core.Config is resolved through WithDefaults, so explicit defaults
//     and omitted knobs hash identically.
//   - Scheduler, Workers and Audit are zeroed: every scheduler produces
//     bit-identical observable results (the repo's central differential
//     claim), so they must share one cache line. Recorder never
//     serializes.
//   - The workload pattern aliases collapse ("" → "uniform", "neighbor"
//     → "neighbour") and the drain default (100×Nodes) is applied.

// cacheKeySpec is the canonical content-address form of a JobSpec.
type cacheKeySpec struct {
	Config   core.Config    `json:"config"`
	Workload WorkloadSpec   `json:"workload"`
	Faults   core.FaultPlan `json:"faults"`
}

// cacheKey canonicalizes a validated spec and hashes it.
func cacheKey(spec JobSpec) (string, error) {
	cfg := spec.Config.WithDefaults()
	cfg.Scheduler = core.SchedulerAuto
	cfg.Workers = 0
	cfg.Audit = false
	cfg.Recorder = nil
	w := spec.Workload
	switch w.Pattern {
	case "":
		w.Pattern = "uniform"
	case "neighbor":
		w.Pattern = "neighbour"
	}
	if w.Drain == 0 {
		w.Drain = 100 * int64(cfg.Nodes)
	}
	data, err := json.Marshal(cacheKeySpec{Config: cfg, Workload: w, Faults: spec.Faults})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// cacheEntry is one memoized run: the completed result, the full JSONL
// trace when the producing job captured one, and the bookkeeping the
// serving path needs to impersonate a finished job.
type cacheEntry struct {
	key    string
	result loadgen.Result
	// trace is the producer's sealed JSONL byte stream, shared (never
	// copied, never written) with every job it serves; hasTrace
	// distinguishes an untraced producer from a traced run that emitted
	// zero events.
	trace    []byte
	hasTrace bool
	// traceEvents and finalTick replay the producer's Status fields.
	traceEvents int64
	finalTick   int64
	// cost is the entry's charge against the byte budget.
	cost int64
}

// entryOverhead approximates the fixed per-entry footprint (result
// struct, key, list and map slots) charged on top of the trace bytes
// and latency samples.
const entryOverhead = 2048

// runCache is a byte-budgeted LRU of completed runs keyed by canonical
// spec hash. All methods are safe for concurrent use.
type runCache struct {
	mu      sync.Mutex
	budget  int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	used       atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	insertions atomic.Int64
}

// newRunCache builds a cache holding at most budget bytes (must be
// positive; the manager resolves defaults and the disabled case).
func newRunCache(budget int64) *runCache {
	return &runCache{budget: budget, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the entry for key, requiring trace bytes when the
// submission wants them. Both miss flavours — absent, and present but
// traceless against a traced submission — count as misses; the job then
// runs (traced) and its insert upgrades the entry.
func (c *runCache) get(key string, needTrace bool) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*cacheEntry)
		if !needTrace || e.hasTrace {
			c.ll.MoveToFront(el)
			c.hits.Add(1)
			return e, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// put memoizes a completed run. An existing traceless entry is upgraded
// in place by a traced producer; a traced or equal entry is kept (the
// results are bit-identical by determinism, so there is nothing to
// replace). Entries larger than the whole budget are not admitted.
func (c *runCache) put(e *cacheEntry) {
	// Charge everything the entry pins: the trace, the result's latency
	// samples (one float64 each) and the fixed overhead.
	e.cost = int64(len(e.trace)) + 8*int64(e.result.Latency.Count()) + entryOverhead
	if e.cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		old := el.Value.(*cacheEntry)
		if old.hasTrace || !e.hasTrace {
			return
		}
		// Upgrade: the traced rerun of a previously untraced spec.
		c.used.Add(e.cost - old.cost)
		el.Value = e
		c.ll.MoveToFront(el)
		c.evictTail()
		return
	}
	c.entries[e.key] = c.ll.PushFront(e)
	c.used.Add(e.cost)
	c.insertions.Add(1)
	c.evictTail()
}

// evictTail drops least-recently-used entries until the budget holds.
// Callers hold c.mu.
func (c *runCache) evictTail() {
	for c.used.Load() > c.budget {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := c.ll.Remove(el).(*cacheEntry)
		delete(c.entries, e.key)
		c.used.Add(-e.cost)
		c.evictions.Add(1)
	}
}

// CacheStats is a snapshot of the run cache's health counters.
type CacheStats struct {
	// Hits/Misses count Submit-time lookups; Evictions counts entries
	// dropped by the byte budget; Insertions counts completed runs
	// memoized.
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Insertions int64 `json:"insertions"`
	// Bytes is the budget currently in use; Budget is the configured cap;
	// Entries is the live entry count.
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
	Entries int   `json:"entries"`
}

// stats snapshots the counters.
func (c *runCache) stats() CacheStats {
	c.mu.Lock()
	entries := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Insertions: c.insertions.Load(),
		Bytes:      c.used.Load(),
		Budget:     c.budget,
		Entries:    entries,
	}
}
