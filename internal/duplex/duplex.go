// Package duplex implements the organization the paper suggests in
// Section 2.1: "for efficiency reasons, one may like to organize the
// communication as two parallel uni-directional rings". It composes two
// core RMB networks — one clockwise, one counter-clockwise — over the
// same node set, splits the bus budget between them, and routes every
// message along the shorter direction.
//
// The counter-clockwise ring reuses the clockwise simulator under a node
// mirror: node i of the real machine is node (N-i) mod N of the mirrored
// ring, so a counter-clockwise hop i -> i-1 becomes a clockwise hop in
// mirrored coordinates.
package duplex

import (
	"fmt"

	"rmb/internal/core"
	"rmb/internal/flit"
	"rmb/internal/sim"
)

// Direction identifies which ring carries a message.
type Direction uint8

const (
	// Clockwise is the paper's base direction.
	Clockwise Direction = iota
	// CounterClockwise is the mirrored ring.
	CounterClockwise
)

// String names the direction.
func (d Direction) String() string {
	if d == CounterClockwise {
		return "counter-clockwise"
	}
	return "clockwise"
}

// Config parameterizes a duplex RMB.
type Config struct {
	// Nodes is N. Buses is the total bus budget; it is split between the
	// two rings (clockwise gets the ceiling half), so hardware cost
	// matches a single ring with the same Buses. Buses must be at least
	// 2.
	Nodes, Buses int
	// Seed drives both rings deterministically.
	Seed uint64
	// Policy selects the direction chooser (default ShortestPath).
	Policy Policy
	// Core carries any further core options applied to both rings
	// (Nodes/Buses/Seed fields inside it are overwritten).
	Core core.Config
}

// Policy decides which ring carries a message.
type Policy uint8

const (
	// ShortestPath picks the direction with the smaller hop count,
	// clockwise on ties.
	ShortestPath Policy = iota
	// AlwaysClockwise degenerates to a single ring (for comparisons).
	AlwaysClockwise
)

// Network is a duplex RMB: two unidirectional rings over one node set.
type Network struct {
	cfg Config
	cw  *core.Network
	ccw *core.Network
	// cwHist / ccwHist keep each ring's finished messages.
	cwHist, ccwHist *core.History

	// dirOf remembers which ring carries each message (by the caller's
	// message handle, which equals the underlying ring's message ID by
	// construction — both rings share an ID sequence via tagging).
	dirOf map[flit.MessageID]Direction
}

// New builds the duplex network.
func New(cfg Config) (*Network, error) {
	if cfg.Buses < 2 {
		return nil, fmt.Errorf("duplex: need at least 2 buses to split between directions, got %d", cfg.Buses)
	}
	cwBuses := (cfg.Buses + 1) / 2
	ccwBuses := cfg.Buses / 2
	base := cfg.Core
	base.Nodes = cfg.Nodes
	base.Seed = cfg.Seed

	cwCfg := base
	cwCfg.Buses = cwBuses
	cw, err := core.NewNetwork(cwCfg)
	if err != nil {
		return nil, fmt.Errorf("duplex: clockwise ring: %w", err)
	}
	ccwCfg := base
	ccwCfg.Buses = ccwBuses
	ccwCfg.Seed = cfg.Seed ^ 0xCC
	ccw, err := core.NewNetwork(ccwCfg)
	if err != nil {
		return nil, fmt.Errorf("duplex: counter-clockwise ring: %w", err)
	}
	return &Network{
		cfg: cfg, cw: cw, ccw: ccw,
		cwHist: core.NewHistory(cw), ccwHist: core.NewHistory(ccw),
		dirOf: make(map[flit.MessageID]Direction),
	}, nil
}

// mirror maps a real node to its counter-clockwise ring coordinate.
func (n *Network) mirror(id core.NodeID) core.NodeID {
	return core.NodeID((n.cfg.Nodes - int(id)) % n.cfg.Nodes)
}

// Handle identifies a message sent through the duplex network.
type Handle struct {
	Dir Direction
	ID  flit.MessageID
}

// ChooseDirection reports which ring the policy assigns to (src, dst).
func (n *Network) ChooseDirection(src, dst core.NodeID) Direction {
	if n.cfg.Policy == AlwaysClockwise {
		return Clockwise
	}
	cwDist := (int(dst) - int(src) + n.cfg.Nodes) % n.cfg.Nodes
	if 2*cwDist <= n.cfg.Nodes {
		return Clockwise
	}
	return CounterClockwise
}

// Send routes a message along the policy-selected direction.
func (n *Network) Send(src, dst core.NodeID, payload []uint64) (Handle, error) {
	dir := n.ChooseDirection(src, dst)
	var (
		id  flit.MessageID
		err error
	)
	if dir == Clockwise {
		id, err = n.cw.Send(src, dst, payload)
	} else {
		id, err = n.ccw.Send(n.mirror(src), n.mirror(dst), payload)
	}
	if err != nil {
		return Handle{}, err
	}
	n.dirOf[id] = dir
	return Handle{Dir: dir, ID: id}, nil
}

// Step advances both rings one tick.
func (n *Network) Step() bool {
	a := n.cw.Step()
	b := n.ccw.Step()
	return a || b
}

// Idle reports whether both rings are drained.
func (n *Network) Idle() bool { return n.cw.Idle() && n.ccw.Idle() }

// Drain runs both rings until idle or the budget is spent.
func (n *Network) Drain(maxTicks sim.Tick) error {
	_, err := sim.Run(n, sim.RunConfig{MaxTicks: maxTicks, IdleLimit: 16 * n.cfg.Nodes}, n.Idle)
	return err
}

// Now reports the tick count (both rings advance in lockstep).
func (n *Network) Now() sim.Tick { return n.cw.Now() }

// Delivered returns every delivered message in real (un-mirrored)
// coordinates, clockwise deliveries first.
func (n *Network) Delivered() []flit.Message {
	out := n.cwHist.Delivered()
	for _, m := range n.ccwHist.Delivered() {
		m.Src = n.mirror(m.Src)
		m.Dst = n.mirror(m.Dst)
		out = append(out, m)
	}
	return out
}

// Record returns the lifecycle record for a handle, in real coordinates.
func (n *Network) Record(h Handle) (core.MsgRecord, bool) {
	if h.Dir == Clockwise {
		return n.cwHist.Record(h.ID)
	}
	r, ok := n.ccwHist.Record(h.ID)
	if ok {
		r.Src = n.mirror(r.Src)
		r.Dst = n.mirror(r.Dst)
	}
	return r, ok
}

// Stats merges both rings' counters via core.Stats.Merge, which sums
// the additive counters and takes the max of the gauges. The previous
// field-by-field merge here silently dropped every counter added to
// core.Stats after it was written; Merge is exhaustive by construction —
// rmbvet's stats-exhaustive analyzer proves every field appears in its
// merged composite.
func (n *Network) Stats() core.Stats {
	return n.cw.Stats().Merge(n.ccw.Stats())
}

// Rings exposes the two underlying networks for inspection.
func (n *Network) Rings() (cw, ccw *core.Network) { return n.cw, n.ccw }

// MeanDistance reports the expected hop count of a uniformly random
// message under the policy: N/4 for shortest-path duplex versus N/2 for
// a single clockwise ring.
func (n *Network) MeanDistance() float64 {
	total := 0
	count := 0
	for s := 0; s < n.cfg.Nodes; s++ {
		for d := 0; d < n.cfg.Nodes; d++ {
			if s == d {
				continue
			}
			cw := (d - s + n.cfg.Nodes) % n.cfg.Nodes
			if n.cfg.Policy == ShortestPath && 2*cw > n.cfg.Nodes {
				cw = n.cfg.Nodes - cw
			}
			total += cw
			count++
		}
	}
	return float64(total) / float64(count)
}
