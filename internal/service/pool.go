package service

import (
	"sync"
	"sync/atomic"

	"rmb/internal/core"
)

// poolKey is the geometry a parked network can be re-armed for: Reset
// reuses fixed-shape storage (grids, SoA mirror words, arenas), so the
// pool never hands a network across a shape boundary.
type poolKey struct {
	nodes, buses int
}

// netPool parks finished networks for reuse, keyed by shape. A worker
// that acquires a pooled network pays one Network.Reset — which re-arms
// the existing arenas, mirrors and timer wheels in place — instead of a
// full NewNetwork rebuild; that is the cold-start cost the serving
// benchmarks measure. Under the `invariants` build tag Reset audits the
// outgoing state first, so a network poisoned by a previous job is
// discarded here (resetFailures) rather than recycled.
type netPool struct {
	mu       sync.Mutex
	perShape int
	nets     map[poolKey][]*core.Network

	// Health counters, exposed through Manager.PoolStats, /metrics and
	// expvar. Atomics so metric scrapes never contend with the workers.
	size          atomic.Int64 // parked networks, all shapes
	reuses        atomic.Int64 // acquisitions served by Reset
	coldBuilds    atomic.Int64 // acquisitions that built a fresh network
	resetFailures atomic.Int64 // parked networks discarded by a failed Reset
	discards      atomic.Int64 // releases dropped because the shape was full
}

// newNetPool builds a pool keeping at most perShape parked networks per
// shape (perShape must be positive; the manager resolves defaults).
func newNetPool(perShape int) *netPool {
	return &netPool{perShape: perShape, nets: make(map[poolKey][]*core.Network)}
}

// acquire returns a network configured per cfg: a parked same-shape
// network re-armed with Reset when one is available, else a fresh build.
// reused reports which path answered (the job-timings "reuse" vs "cold"
// label). A Reset failure (the invariants-tag corruption canary, or a
// config the network cannot take) discards the parked network and falls
// back to a fresh build — corrupted state never reaches a job.
func (p *netPool) acquire(cfg core.Config) (*core.Network, bool, error) {
	key := poolKey{cfg.Nodes, cfg.Buses}
	for {
		n := p.take(key)
		if n == nil {
			break
		}
		if err := n.Reset(cfg); err != nil {
			p.resetFailures.Add(1)
			continue
		}
		p.reuses.Add(1)
		return n, true, nil
	}
	p.coldBuilds.Add(1)
	n, err := core.NewNetwork(cfg)
	return n, false, err
}

// restore rebuilds a checkpointed network, into a parked network of the
// job's shape when one is available: RestoreCheckpoint re-arms it in
// place, so the resumed run keeps the storage an earlier run already
// grew instead of regrowing a fresh network's message history. A parked
// network that refuses the checkpoint is dropped and the checkpoint is
// rebuilt from scratch, which reports the error if the bytes are bad.
func (p *netPool) restore(shape core.Config, data []byte) (*core.Network, error) {
	if n := p.take(poolKey{shape.Nodes, shape.Buses}); n != nil {
		if err := n.RestoreCheckpoint(data); err == nil {
			p.reuses.Add(1)
			return n, nil
		}
	}
	return core.UnmarshalCheckpoint(data)
}

// take pops a parked network of the given shape, or returns nil.
func (p *netPool) take(key poolKey) *core.Network {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.nets[key]
	if len(l) == 0 {
		return nil
	}
	n := l[len(l)-1]
	l[len(l)-1] = nil
	p.nets[key] = l[: len(l)-1 : cap(l)]
	p.size.Add(-1)
	return n
}

// release parks a finished network for reuse, or drops it when the
// shape's slots are full. The network's recorder is detached so the pool
// never pins a finished job's trace sink.
func (p *netPool) release(n *core.Network) {
	if n == nil {
		return
	}
	n.SetRecorder(nil)
	cfg := n.Config()
	key := poolKey{cfg.Nodes, cfg.Buses}
	p.mu.Lock()
	if len(p.nets[key]) < p.perShape {
		p.nets[key] = append(p.nets[key], n)
		p.mu.Unlock()
		p.size.Add(1)
		return
	}
	p.mu.Unlock()
	p.discards.Add(1)
}

// PoolStats is a snapshot of the network pool's health counters.
type PoolStats struct {
	// Size is the number of parked networks across all shapes.
	Size int64 `json:"size"`
	// Reuses counts jobs served by re-arming a parked network.
	Reuses int64 `json:"reuses"`
	// ColdBuilds counts jobs that paid a full NewNetwork construction.
	ColdBuilds int64 `json:"coldBuilds"`
	// ResetFailures counts parked networks discarded because Reset
	// refused them (the invariants-tag corruption canary).
	ResetFailures int64 `json:"resetFailures"`
	// Discards counts released networks dropped because their shape's
	// slots were full.
	Discards int64 `json:"discards"`
}

// stats snapshots the counters.
func (p *netPool) stats() PoolStats {
	return PoolStats{
		Size:          p.size.Load(),
		Reuses:        p.reuses.Load(),
		ColdBuilds:    p.coldBuilds.Load(),
		ResetFailures: p.resetFailures.Load(),
		Discards:      p.discards.Load(),
	}
}
