// Package rmb is the public API of this reproduction of "RMB — A
// Reconfigurable Multiple Bus Network" (ElGindy, Schröder, Spray, Somani,
// Schmeck; HPCA 1996).
//
// The RMB joins N ring nodes with k parallel bus segments per hop. Each
// node's interconnection network controller (INC) can connect input port
// l only to output ports {l-1, l, l+1}; messages are circuit-switched
// with wormhole-style flits (header, data, final) and four
// acknowledgement signals (Hack, Dack, Fack, Nack), and a background
// systolic compaction protocol continuously sinks established circuits to
// the lowest free segments so the top bus stays available for new
// requests.
//
// Two implementations are provided:
//
//   - rmb.New returns the deterministic cycle-stepped simulator
//     (internal/core) used by all benchmarks and experiments;
//   - rmb.NewAsync returns the goroutine/channel implementation
//     (internal/async), where every INC is a goroutine and every bus
//     segment is a pair of Go channels carrying wire-encoded frames.
//
// The package also re-exports the workload generators, the Section 3.2
// structural cost models and the off-line scheduler used by the
// competitiveness experiments. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package rmb

import (
	"rmb/internal/analysis"
	"rmb/internal/async"
	"rmb/internal/core"
	"rmb/internal/flit"
	"rmb/internal/sim"
)

// Core simulator types.
type (
	// Config parameterizes a cycle-stepped RMB network.
	Config = core.Config
	// Network is the deterministic cycle-stepped RMB simulator.
	Network = core.Network
	// Stats aggregates counters over a simulation run.
	Stats = core.Stats
	// MsgRecord tracks one message's lifecycle timestamps.
	MsgRecord = core.MsgRecord
	// History keeps a network's finished messages (see NewHistory).
	History = core.History
	// Snapshot is a read-only occupancy view.
	Snapshot = core.Snapshot
	// VirtualBus is one live circuit.
	VirtualBus = core.VirtualBus
	// PortStatus is the 3-bit Table 1 status register code.
	PortStatus = core.PortStatus
	// NodeID numbers ring nodes 0..N-1.
	NodeID = flit.NodeID
	// MessageID identifies a message within a run.
	MessageID = flit.MessageID
	// Message is one unit of communication.
	Message = flit.Message
	// Tick is a point in simulated time.
	Tick = sim.Tick
)

// Synchronization modes for the compaction protocol.
const (
	// Lockstep drives all INCs from one global odd/even cycle counter.
	Lockstep = core.Lockstep
	// Async gives each INC its own handshake-coupled cycle FSM.
	Async = core.Async
)

// Header advance policies.
const (
	// HeadFlexible tries straight, then down, then up (default).
	HeadFlexible = core.HeadFlexible
	// HeadStraightOnly only continues at its current level.
	HeadStraightOnly = core.HeadStraightOnly
	// HeadStrictTop pins the head to the top bus segment.
	HeadStrictTop = core.HeadStrictTop
)

// HeadTimeoutDisabled disables the head starvation safety valve,
// restoring the paper's unguarded establishment behaviour.
const HeadTimeoutDisabled = core.HeadTimeoutDisabled

// New builds a deterministic cycle-stepped RMB network.
func New(cfg Config) (*Network, error) { return core.NewNetwork(cfg) }

// NewHistory attaches a History to n. A network forgets a message when
// it finishes, so a caller that wants the delivered messages or finished
// records attaches one right after New.
func NewHistory(n *Network) *History { return core.NewHistory(n) }

// Asynchronous implementation.
type (
	// AsyncConfig parameterizes the goroutine/channel implementation.
	AsyncConfig = async.Config
	// AsyncNetwork is a running goroutine/channel RMB ring.
	AsyncNetwork = async.Network
	// AsyncDemand is one send request for AsyncNetwork.SendAndAwait.
	AsyncDemand = async.Demand
)

// NewAsync builds and starts a goroutine/channel RMB network. Callers
// must Stop it when done.
func NewAsync(cfg AsyncConfig) (*AsyncNetwork, error) { return async.New(cfg) }

// Structural cost models (Section 3.2).
type (
	// Costs aggregates links/cross points/area/bisection for one design.
	Costs = analysis.Costs
	// Arch names a compared architecture.
	Arch = analysis.Arch
)

// CompareArchitectures returns the Section 3.2 comparison table for one
// (N, k) design point: RMB, hypercube, EHC, GFC, fat tree and mesh.
func CompareArchitectures(n, k int) []Costs { return analysis.Compare(n, k) }

// RMBCosts returns the RMB's structural costs for N nodes and k buses.
func RMBCosts(n, k int) Costs { return analysis.RMB(n, k) }
