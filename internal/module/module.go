// Package module implements the scaling story of the paper's
// introduction: "for scalability, the ring-based medium-sized system is
// used as a module. Multiple modules can be used to create larger
// systems where these modules are interconnected using specific
// topologies." Here M identical RMB rings ("modules") are joined by one
// more RMB ring over their gateway nodes — a ring of rings.
//
// A message between modules travels in up to three phases, each a
// complete RMB transaction: source to its module's gateway on the local
// ring, gateway to gateway on the inter-module ring, and gateway to
// destination on the remote local ring. Phases whose endpoints coincide
// are skipped.
package module

import (
	"fmt"

	"rmb/internal/core"
	"rmb/internal/flit"
	"rmb/internal/sim"
)

// Config parameterizes a modular RMB system.
type Config struct {
	// Modules is the module count M (>= 2); NodesPerModule is the local
	// ring size n (>= 2). Global node id = module*NodesPerModule + local.
	Modules, NodesPerModule int
	// LocalBuses is k for each module's ring; TrunkBuses is k for the
	// inter-module ring.
	LocalBuses, TrunkBuses int
	// Seed drives all rings deterministically.
	Seed uint64
	// Core carries further options applied to every ring.
	Core core.Config
}

// MsgID identifies a system-level message.
type MsgID uint64

// Delivery is one completed system-level message.
type Delivery struct {
	ID       MsgID
	Src, Dst int
	Payload  []uint64
	// Phases is how many ring transactions the message used (1-3).
	Phases int
	// Delivered is the tick the final phase completed.
	Delivered sim.Tick
}

type phase uint8

const (
	phaseLocalOut phase = iota // source ring toward the gateway
	phaseTrunk                 // inter-module ring
	phaseLocalIn               // destination ring from the gateway
)

type message struct {
	id       MsgID
	src, dst int
	payload  []uint64
	phases   int
}

type ringRef struct {
	kind phase
	idx  int // module index for local phases; 0 for the trunk
	ring flit.MessageID
}

// Network is a modular RMB system.
type Network struct {
	cfg    Config
	locals []*core.Network
	trunk  *core.Network
	// localHist[m] and trunkHist keep each ring's deliveries for absorb.
	localHist []*core.History
	trunkHist *core.History
	clock     *sim.Clock

	nextID        MsgID
	inflight      map[ringRef]*message
	consumedLocal []int
	consumedTrunk int

	delivered []Delivery
	pending   int
}

// New builds the modular system.
func New(cfg Config) (*Network, error) {
	if cfg.Modules < 2 {
		return nil, fmt.Errorf("module: need at least 2 modules, got %d", cfg.Modules)
	}
	if cfg.NodesPerModule < 2 {
		return nil, fmt.Errorf("module: need at least 2 nodes per module, got %d", cfg.NodesPerModule)
	}
	if cfg.LocalBuses < 1 || cfg.TrunkBuses < 1 {
		return nil, fmt.Errorf("module: bus counts must be positive (local %d, trunk %d)", cfg.LocalBuses, cfg.TrunkBuses)
	}
	n := &Network{
		cfg:           cfg,
		clock:         sim.NewClock(),
		inflight:      make(map[ringRef]*message),
		consumedLocal: make([]int, cfg.Modules),
	}
	base := cfg.Core
	for m := 0; m < cfg.Modules; m++ {
		lc := base
		lc.Nodes = cfg.NodesPerModule
		lc.Buses = cfg.LocalBuses
		lc.Seed = cfg.Seed ^ uint64(m)<<8
		ring, err := core.NewNetwork(lc)
		if err != nil {
			return nil, fmt.Errorf("module: local ring %d: %w", m, err)
		}
		n.locals = append(n.locals, ring)
		n.localHist = append(n.localHist, core.NewHistory(ring))
	}
	tc := base
	tc.Nodes = cfg.Modules
	tc.Buses = cfg.TrunkBuses
	tc.Seed = cfg.Seed ^ 0x7A
	trunk, err := core.NewNetwork(tc)
	if err != nil {
		return nil, fmt.Errorf("module: trunk ring: %w", err)
	}
	n.trunk = trunk
	n.trunkHist = core.NewHistory(trunk)
	return n, nil
}

// Nodes reports M·n.
func (n *Network) Nodes() int { return n.cfg.Modules * n.cfg.NodesPerModule }

// split decomposes a global node id.
func (n *Network) split(id int) (module, local int) {
	return id / n.cfg.NodesPerModule, id % n.cfg.NodesPerModule
}

// The gateway is local node 0 of every module.
const gateway = 0

// Send enqueues a message between any two system nodes.
func (n *Network) Send(src, dst int, payload []uint64) (MsgID, error) {
	if src < 0 || src >= n.Nodes() || dst < 0 || dst >= n.Nodes() {
		return 0, fmt.Errorf("module: send %d->%d outside [0,%d)", src, dst, n.Nodes())
	}
	if src == dst {
		return 0, fmt.Errorf("module: node %d cannot send to itself", src)
	}
	n.nextID++
	m := &message{id: n.nextID, src: src, dst: dst, payload: append([]uint64(nil), payload...)}
	n.pending++
	sm, sl := n.split(src)
	dm, dl := n.split(dst)
	if sm == dm {
		// Intra-module: one local transaction.
		id, err := n.locals[sm].Send(core.NodeID(sl), core.NodeID(dl), m.payload)
		if err != nil {
			n.pending--
			return 0, err
		}
		m.phases = 1
		n.inflight[ringRef{kind: phaseLocalIn, idx: sm, ring: id}] = m
		return m.id, nil
	}
	if sl == gateway {
		// Already at the gateway: start on the trunk.
		id, err := n.trunk.Send(core.NodeID(sm), core.NodeID(dm), m.payload)
		if err != nil {
			n.pending--
			return 0, err
		}
		m.phases = 1
		n.inflight[ringRef{kind: phaseTrunk, ring: id}] = m
		return m.id, nil
	}
	id, err := n.locals[sm].Send(core.NodeID(sl), gateway, m.payload)
	if err != nil {
		n.pending--
		return 0, err
	}
	m.phases = 1
	n.inflight[ringRef{kind: phaseLocalOut, idx: sm, ring: id}] = m
	_ = dl
	return m.id, nil
}

// Step advances every ring one tick and forwards phase completions.
func (n *Network) Step() bool {
	progress := false
	for _, l := range n.locals {
		if l.Step() {
			progress = true
		}
	}
	if n.trunk.Step() {
		progress = true
	}
	n.clock.Advance()
	if n.absorb() {
		progress = true
	}
	return progress
}

// absorb moves completed ring transactions to their next phase.
func (n *Network) absorb() bool {
	moved := false
	for mIdx, hist := range n.localHist {
		for _, msg := range hist.DeliveredSince(n.consumedLocal[mIdx]) {
			n.consumedLocal[mIdx]++
			if m, ok := n.takeRef(ringRef{kind: phaseLocalOut, idx: mIdx, ring: msg.ID}); ok {
				moved = true
				dm, _ := n.split(m.dst)
				id, err := n.trunk.Send(core.NodeID(mIdx), core.NodeID(dm), m.payload)
				if err != nil {
					panic(fmt.Sprintf("module: trunk send failed: %v", err))
				}
				m.phases++
				n.inflight[ringRef{kind: phaseTrunk, ring: id}] = m
				continue
			}
			if m, ok := n.takeRef(ringRef{kind: phaseLocalIn, idx: mIdx, ring: msg.ID}); ok {
				moved = true
				n.complete(m)
			}
		}
	}
	for _, msg := range n.trunkHist.DeliveredSince(n.consumedTrunk) {
		n.consumedTrunk++
		m, ok := n.takeRef(ringRef{kind: phaseTrunk, ring: msg.ID})
		if !ok {
			continue
		}
		moved = true
		dm, dl := n.split(m.dst)
		if dl == gateway {
			n.complete(m)
			continue
		}
		id, err := n.locals[dm].Send(gateway, core.NodeID(dl), m.payload)
		if err != nil {
			panic(fmt.Sprintf("module: local-in send failed: %v", err))
		}
		m.phases++
		n.inflight[ringRef{kind: phaseLocalIn, idx: dm, ring: id}] = m
	}
	return moved
}

func (n *Network) takeRef(ref ringRef) (*message, bool) {
	m, ok := n.inflight[ref]
	if ok {
		delete(n.inflight, ref)
	}
	return m, ok
}

func (n *Network) complete(m *message) {
	n.pending--
	n.delivered = append(n.delivered, Delivery{
		ID: m.id, Src: m.src, Dst: m.dst,
		Payload:   m.payload,
		Phases:    m.phases,
		Delivered: n.clock.Now(),
	})
}

// Idle reports whether every ring is drained and nothing is in flight.
func (n *Network) Idle() bool {
	if n.pending > 0 {
		return false
	}
	for _, l := range n.locals {
		if !l.Idle() {
			return false
		}
	}
	return n.trunk.Idle()
}

// Drain runs until idle or the budget is spent.
func (n *Network) Drain(maxTicks sim.Tick) error {
	_, err := sim.Run(n, sim.RunConfig{MaxTicks: maxTicks, IdleLimit: 64 * (n.cfg.Modules + n.cfg.NodesPerModule)}, n.Idle)
	return err
}

// Now reports the system clock.
func (n *Network) Now() sim.Tick { return n.clock.Now() }

// Delivered returns completed messages in completion order.
func (n *Network) Delivered() []Delivery {
	return append([]Delivery(nil), n.delivered...)
}

// Stats merges the counters of every ring (trunk included).
func (n *Network) Stats() core.Stats {
	var total core.Stats
	add := func(s core.Stats) {
		total.MessagesSubmitted += s.MessagesSubmitted
		total.Delivered += s.Delivered
		total.Nacks += s.Nacks
		total.Retries += s.Retries
		total.CompactionMoves += s.CompactionMoves
	}
	for _, l := range n.locals {
		add(l.Stats())
	}
	add(n.trunk.Stats())
	total.Ticks = n.clock.Now()
	return total
}
