// Package grid implements the 2-D grid organization the paper's
// conclusion lists as future work ("the design of reconfigurable
// multiple bus systems for 2- and 3-D grid connected computers"): a
// width x height array of processors where every row and every column is
// its own RMB ring. Messages route in two phases, row ring first and
// column ring second (the bus-network analogue of XY routing): node
// (r, c1) reaches (r, c2) on row r's ring, and the turning node forwards
// the payload down column c2's ring.
//
// Each phase is a complete RMB transaction (header, Hack, data, final
// flit, Fack) on its ring, so the grid composes unmodified core networks
// and inherits all of their protocol guarantees.
package grid

import (
	"fmt"

	"rmb/internal/core"
	"rmb/internal/flit"
	"rmb/internal/sim"
)

// Config parameterizes a grid RMB.
type Config struct {
	// Width and Height are the grid dimensions; both must be at least 2.
	Width, Height int
	// Buses is k for every row and column ring.
	Buses int
	// Seed drives all rings deterministically.
	Seed uint64
	// Core carries further options applied to every ring (dimension and
	// seed fields are overwritten).
	Core core.Config
}

// MsgID identifies a grid message.
type MsgID uint64

// Delivery is one completed grid message.
type Delivery struct {
	ID       MsgID
	Src, Dst int
	Payload  []uint64
	// Turn is the intermediate node where the message switched from its
	// row ring to its column ring (-1 for single-phase routes).
	Turn int
	// Delivered is the tick the final phase completed.
	Delivered sim.Tick
}

// message tracks one grid message through its phases.
type message struct {
	id       MsgID
	src, dst int
	payload  []uint64
	enqueued sim.Tick
	turn     int
}

// ringRef locates a pending ring-level transfer.
type ringRef struct {
	row  bool
	idx  int
	ring flit.MessageID
}

// Network is a 2-D grid of RMB rings.
type Network struct {
	cfg  Config
	rows []*core.Network // rows[r]: ring over columns 0..w-1
	cols []*core.Network // cols[c]: ring over rows 0..h-1
	// rowHist[r] / colHist[c] keep each ring's deliveries for absorb.
	rowHist, colHist []*core.History
	clock            *sim.Clock

	nextID MsgID
	// inflight maps a ring-level message to its grid message and phase.
	inflight map[ringRef]*message
	// consumedRow/consumedCol track how many delivered ring messages have
	// been absorbed from each ring so far.
	consumedRow, consumedCol []int

	delivered       []Delivery
	pendingMessages int
}

// New builds the grid.
func New(cfg Config) (*Network, error) {
	if cfg.Width < 2 || cfg.Height < 2 {
		return nil, fmt.Errorf("grid: need width and height >= 2, got %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Buses < 1 {
		return nil, fmt.Errorf("grid: need at least 1 bus, got %d", cfg.Buses)
	}
	g := &Network{
		cfg:         cfg,
		clock:       sim.NewClock(),
		inflight:    make(map[ringRef]*message),
		consumedRow: make([]int, cfg.Height),
		consumedCol: make([]int, cfg.Width),
	}
	base := cfg.Core
	base.Buses = cfg.Buses
	for r := 0; r < cfg.Height; r++ {
		rc := base
		rc.Nodes = cfg.Width
		rc.Seed = cfg.Seed ^ uint64(r)<<8
		ring, err := core.NewNetwork(rc)
		if err != nil {
			return nil, fmt.Errorf("grid: row %d: %w", r, err)
		}
		g.rows = append(g.rows, ring)
		g.rowHist = append(g.rowHist, core.NewHistory(ring))
	}
	for c := 0; c < cfg.Width; c++ {
		cc := base
		cc.Nodes = cfg.Height
		cc.Seed = cfg.Seed ^ 0xC01 ^ uint64(c)<<8
		ring, err := core.NewNetwork(cc)
		if err != nil {
			return nil, fmt.Errorf("grid: column %d: %w", c, err)
		}
		g.cols = append(g.cols, ring)
		g.colHist = append(g.colHist, core.NewHistory(ring))
	}
	return g, nil
}

// Nodes reports width*height.
func (g *Network) Nodes() int { return g.cfg.Width * g.cfg.Height }

// coord splits a node id into (row, col).
func (g *Network) coord(id int) (r, c int) { return id / g.cfg.Width, id % g.cfg.Width }

// Send enqueues a message between two grid nodes.
func (g *Network) Send(src, dst int, payload []uint64) (MsgID, error) {
	if src < 0 || src >= g.Nodes() || dst < 0 || dst >= g.Nodes() {
		return 0, fmt.Errorf("grid: send %d->%d outside [0,%d)", src, dst, g.Nodes())
	}
	if src == dst {
		return 0, fmt.Errorf("grid: node %d cannot send to itself", src)
	}
	g.nextID++
	m := &message{
		id: g.nextID, src: src, dst: dst,
		payload:  append([]uint64(nil), payload...),
		enqueued: g.clock.Now(),
		turn:     -1,
	}
	g.pendingMessages++
	sr, sc := g.coord(src)
	_, dc := g.coord(dst)
	if sc != dc {
		// Phase 1: along row sr from column sc to dc.
		id, err := g.rows[sr].Send(core.NodeID(sc), core.NodeID(dc), m.payload)
		if err != nil {
			g.pendingMessages--
			return 0, err
		}
		if sr != g.rowOf(dst) {
			m.turn = sr*g.cfg.Width + dc
		}
		g.inflight[ringRef{row: true, idx: sr, ring: id}] = m
		return m.id, nil
	}
	// Same column: single column phase.
	dr, _ := g.coord(dst)
	id, err := g.cols[sc].Send(core.NodeID(sr), core.NodeID(dr), m.payload)
	if err != nil {
		g.pendingMessages--
		return 0, err
	}
	g.inflight[ringRef{row: false, idx: sc, ring: id}] = m
	return m.id, nil
}

func (g *Network) rowOf(id int) int { return id / g.cfg.Width }

// Step advances every ring one tick and moves phase-1 completions into
// their column rings.
func (g *Network) Step() bool {
	progress := false
	for _, r := range g.rows {
		if r.Step() {
			progress = true
		}
	}
	for _, c := range g.cols {
		if c.Step() {
			progress = true
		}
	}
	g.clock.Advance()
	if g.absorbDeliveries() {
		progress = true
	}
	return progress
}

// absorbDeliveries collects newly delivered ring messages, completing
// grid messages or launching their second phase.
func (g *Network) absorbDeliveries() bool {
	moved := false
	for r, hist := range g.rowHist {
		for _, msg := range hist.DeliveredSince(g.consumedRow[r]) {
			g.consumedRow[r] = g.consumedRow[r] + 1
			ref := ringRef{row: true, idx: r, ring: msg.ID}
			m, ok := g.inflight[ref]
			if !ok {
				continue
			}
			delete(g.inflight, ref)
			moved = true
			dr, dc := g.coord(m.dst)
			if dr == r {
				g.complete(m)
				continue
			}
			// Phase 2: down column dc from row r to dr.
			id, err := g.cols[dc].Send(core.NodeID(r), core.NodeID(dr), m.payload)
			if err != nil {
				// Column sends can only fail on programmer error; the
				// destination is validated at Send time.
				panic(fmt.Sprintf("grid: phase-2 send failed: %v", err))
			}
			g.inflight[ringRef{row: false, idx: dc, ring: id}] = m
		}
	}
	for c, hist := range g.colHist {
		for _, msg := range hist.DeliveredSince(g.consumedCol[c]) {
			g.consumedCol[c] = g.consumedCol[c] + 1
			ref := ringRef{row: false, idx: c, ring: msg.ID}
			m, ok := g.inflight[ref]
			if !ok {
				continue
			}
			delete(g.inflight, ref)
			moved = true
			g.complete(m)
		}
	}
	return moved
}

func (g *Network) complete(m *message) {
	g.pendingMessages--
	g.delivered = append(g.delivered, Delivery{
		ID: m.id, Src: m.src, Dst: m.dst,
		Payload:   m.payload,
		Turn:      m.turn,
		Delivered: g.clock.Now(),
	})
}

// Idle reports whether every ring is drained and no grid message is in
// flight.
func (g *Network) Idle() bool {
	if g.pendingMessages > 0 {
		return false
	}
	for _, r := range g.rows {
		if !r.Idle() {
			return false
		}
	}
	for _, c := range g.cols {
		if !c.Idle() {
			return false
		}
	}
	return true
}

// Drain runs until idle or the budget is spent.
func (g *Network) Drain(maxTicks sim.Tick) error {
	_, err := sim.Run(g, sim.RunConfig{MaxTicks: maxTicks, IdleLimit: 32 * (g.cfg.Width + g.cfg.Height)}, g.Idle)
	return err
}

// Now reports the grid clock.
func (g *Network) Now() sim.Tick { return g.clock.Now() }

// Delivered returns completed grid messages in completion order.
func (g *Network) Delivered() []Delivery {
	return append([]Delivery(nil), g.delivered...)
}

// Stats merges the counters of every ring.
func (g *Network) Stats() core.Stats {
	var total core.Stats
	add := func(s core.Stats) {
		total.MessagesSubmitted += s.MessagesSubmitted
		total.Insertions += s.Insertions
		total.Delivered += s.Delivered
		total.Nacks += s.Nacks
		total.HeadTimeouts += s.HeadTimeouts
		total.Retries += s.Retries
		total.CompactionMoves += s.CompactionMoves
		total.BusySegmentTicks += s.BusySegmentTicks
	}
	for _, r := range g.rows {
		add(r.Stats())
	}
	for _, c := range g.cols {
		add(c.Stats())
	}
	total.Ticks = g.clock.Now()
	return total
}

// MeanDistance reports the expected two-phase hop count for uniform
// traffic: (W/2 + H/2) ring hops versus N/2 on one big clockwise ring.
func (g *Network) MeanDistance() float64 {
	w, h := g.cfg.Width, g.cfg.Height
	// Mean clockwise distance on an n-ring over distinct pairs is n/2;
	// a two-phase route pays a row leg (present unless columns match)
	// and a column leg (present unless rows match).
	rowLeg := float64(w) / 2 * float64(w-1) / float64(w)
	colLeg := float64(h) / 2 * float64(h-1) / float64(h)
	return rowLeg + colLeg
}
