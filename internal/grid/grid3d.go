package grid

import (
	"fmt"

	"rmb/internal/core"
	"rmb/internal/flit"
	"rmb/internal/sim"
)

// Config3D parameterizes a 3-D grid of RMB rings: an X×Y×Z array where
// every axis-aligned line of processors is its own RMB ring. Messages
// route in up to three phases (X ring, then Y ring, then Z ring) — the
// second half of the paper's "2- and 3-D grid connected computers"
// future-work item.
type Config3D struct {
	// X, Y, Z are the grid dimensions; each must be at least 2.
	X, Y, Z int
	// Buses is k for every ring.
	Buses int
	// Seed drives all rings deterministically.
	Seed uint64
	// Core carries further options applied to every ring.
	Core core.Config
}

// Delivery3D is one completed 3-D grid message.
type Delivery3D struct {
	ID       MsgID
	Src, Dst int
	Payload  []uint64
	// Phases is how many ring transactions the route used (1-3).
	Phases int
	// Delivered is the tick the final phase completed.
	Delivered sim.Tick
}

type message3D struct {
	id       MsgID
	src, dst int
	payload  []uint64
	phases   int
}

type axis uint8

const (
	axisX axis = iota
	axisY
	axisZ
)

type ringRef3D struct {
	ax   axis
	idx  int
	ring flit.MessageID
}

// Network3D is a 3-D grid of RMB rings.
type Network3D struct {
	cfg    Config3D
	ringsX []*core.Network // indexed by z*Y + y
	ringsY []*core.Network // indexed by z*X + x
	ringsZ []*core.Network // indexed by y*X + x
	// hist[ax][i] keeps ring i of axis ax's deliveries for absorb.
	hist  map[axis][]*core.History
	clock *sim.Clock

	nextID   MsgID
	inflight map[ringRef3D]*message3D
	consumed map[axis][]int

	delivered []Delivery3D
	pending   int
}

// New3D builds the 3-D grid.
func New3D(cfg Config3D) (*Network3D, error) {
	if cfg.X < 2 || cfg.Y < 2 || cfg.Z < 2 {
		return nil, fmt.Errorf("grid: 3-D grid needs every dimension >= 2, got %dx%dx%d", cfg.X, cfg.Y, cfg.Z)
	}
	if cfg.Buses < 1 {
		return nil, fmt.Errorf("grid: need at least 1 bus, got %d", cfg.Buses)
	}
	g := &Network3D{
		cfg:      cfg,
		clock:    sim.NewClock(),
		inflight: make(map[ringRef3D]*message3D),
		hist:     make(map[axis][]*core.History),
		consumed: map[axis][]int{
			axisX: make([]int, cfg.Y*cfg.Z),
			axisY: make([]int, cfg.X*cfg.Z),
			axisZ: make([]int, cfg.X*cfg.Y),
		},
	}
	base := cfg.Core
	base.Buses = cfg.Buses
	build := func(ax axis, nodes int, salt uint64) (*core.Network, error) {
		c := base
		c.Nodes = nodes
		c.Seed = cfg.Seed ^ salt
		r, err := core.NewNetwork(c)
		if err == nil {
			g.hist[ax] = append(g.hist[ax], core.NewHistory(r))
		}
		return r, err
	}
	for i := 0; i < cfg.Y*cfg.Z; i++ {
		r, err := build(axisX, cfg.X, 0x100+uint64(i)<<8)
		if err != nil {
			return nil, fmt.Errorf("grid: X ring %d: %w", i, err)
		}
		g.ringsX = append(g.ringsX, r)
	}
	for i := 0; i < cfg.X*cfg.Z; i++ {
		r, err := build(axisY, cfg.Y, 0x200+uint64(i)<<8)
		if err != nil {
			return nil, fmt.Errorf("grid: Y ring %d: %w", i, err)
		}
		g.ringsY = append(g.ringsY, r)
	}
	for i := 0; i < cfg.X*cfg.Y; i++ {
		r, err := build(axisZ, cfg.Z, 0x300+uint64(i)<<8)
		if err != nil {
			return nil, fmt.Errorf("grid: Z ring %d: %w", i, err)
		}
		g.ringsZ = append(g.ringsZ, r)
	}
	return g, nil
}

// Nodes reports X·Y·Z.
func (g *Network3D) Nodes() int { return g.cfg.X * g.cfg.Y * g.cfg.Z }

// coords splits a node id into (x, y, z).
func (g *Network3D) coords(id int) (x, y, z int) {
	x = id % g.cfg.X
	y = (id / g.cfg.X) % g.cfg.Y
	z = id / (g.cfg.X * g.cfg.Y)
	return x, y, z
}

func (g *Network3D) nodeID(x, y, z int) int {
	return (z*g.cfg.Y+y)*g.cfg.X + x
}

// Send enqueues a message between two grid nodes.
func (g *Network3D) Send(src, dst int, payload []uint64) (MsgID, error) {
	if src < 0 || src >= g.Nodes() || dst < 0 || dst >= g.Nodes() {
		return 0, fmt.Errorf("grid: send %d->%d outside [0,%d)", src, dst, g.Nodes())
	}
	if src == dst {
		return 0, fmt.Errorf("grid: node %d cannot send to itself", src)
	}
	g.nextID++
	m := &message3D{id: g.nextID, src: src, dst: dst, payload: append([]uint64(nil), payload...)}
	g.pending++
	if err := g.launchNextPhase(m, src); err != nil {
		g.pending--
		return 0, err
	}
	return m.id, nil
}

// launchNextPhase starts the first unfinished axis correction from the
// given position (X, then Y, then Z).
func (g *Network3D) launchNextPhase(m *message3D, at int) error {
	ax, ay, az := g.coords(at)
	dx, dy, dz := g.coords(m.dst)
	m.phases++
	switch {
	case ax != dx:
		idx := az*g.cfg.Y + ay
		id, err := g.ringsX[idx].Send(core.NodeID(ax), core.NodeID(dx), m.payload)
		if err != nil {
			return err
		}
		g.inflight[ringRef3D{ax: axisX, idx: idx, ring: id}] = m
	case ay != dy:
		idx := az*g.cfg.X + ax
		id, err := g.ringsY[idx].Send(core.NodeID(ay), core.NodeID(dy), m.payload)
		if err != nil {
			return err
		}
		g.inflight[ringRef3D{ax: axisY, idx: idx, ring: id}] = m
	default:
		idx := ay*g.cfg.X + ax
		id, err := g.ringsZ[idx].Send(core.NodeID(az), core.NodeID(dz), m.payload)
		if err != nil {
			return err
		}
		g.inflight[ringRef3D{ax: axisZ, idx: idx, ring: id}] = m
	}
	return nil
}

// positionAfter reports where a message sits once the given axis has been
// corrected.
func (g *Network3D) positionAfter(m *message3D, ax axis, ringIdx int) int {
	dx, dy, dz := g.coords(m.dst)
	switch ax {
	case axisX:
		y := ringIdx % g.cfg.Y
		z := ringIdx / g.cfg.Y
		return g.nodeID(dx, y, z)
	case axisY:
		x := ringIdx % g.cfg.X
		z := ringIdx / g.cfg.X
		return g.nodeID(x, dy, z)
	default:
		x := ringIdx % g.cfg.X
		y := ringIdx / g.cfg.X
		return g.nodeID(x, y, dz)
	}
}

// Step advances every ring and forwards phase completions.
func (g *Network3D) Step() bool {
	progress := false
	step := func(rings []*core.Network) {
		for _, r := range rings {
			if r.Step() {
				progress = true
			}
		}
	}
	step(g.ringsX)
	step(g.ringsY)
	step(g.ringsZ)
	g.clock.Advance()
	if g.absorb() {
		progress = true
	}
	return progress
}

func (g *Network3D) absorb() bool {
	moved := false
	handle := func(ax axis) {
		for idx, hist := range g.hist[ax] {
			for _, msg := range hist.DeliveredSince(g.consumed[ax][idx]) {
				g.consumed[ax][idx]++
				ref := ringRef3D{ax: ax, idx: idx, ring: msg.ID}
				m, ok := g.inflight[ref]
				if !ok {
					continue
				}
				delete(g.inflight, ref)
				moved = true
				at := g.positionAfter(m, ax, idx)
				if at == m.dst {
					g.pending--
					g.delivered = append(g.delivered, Delivery3D{
						ID: m.id, Src: m.src, Dst: m.dst,
						Payload: m.payload, Phases: m.phases,
						Delivered: g.clock.Now(),
					})
					continue
				}
				if err := g.launchNextPhase(m, at); err != nil {
					panic(fmt.Sprintf("grid: 3-D phase launch failed: %v", err))
				}
			}
		}
	}
	handle(axisX)
	handle(axisY)
	handle(axisZ)
	return moved
}

// Idle reports whether everything is drained.
func (g *Network3D) Idle() bool {
	if g.pending > 0 {
		return false
	}
	for _, rings := range [][]*core.Network{g.ringsX, g.ringsY, g.ringsZ} {
		for _, r := range rings {
			if !r.Idle() {
				return false
			}
		}
	}
	return true
}

// Drain runs until idle or the budget is spent.
func (g *Network3D) Drain(maxTicks sim.Tick) error {
	_, err := sim.Run(g, sim.RunConfig{MaxTicks: maxTicks, IdleLimit: 32 * (g.cfg.X + g.cfg.Y + g.cfg.Z)}, g.Idle)
	return err
}

// Now reports the grid clock.
func (g *Network3D) Now() sim.Tick { return g.clock.Now() }

// Delivered returns completed messages in completion order.
func (g *Network3D) Delivered() []Delivery3D {
	return append([]Delivery3D(nil), g.delivered...)
}
