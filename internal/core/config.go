package core

import (
	"errors"
	"fmt"
)

// SyncMode selects how the compaction protocol's odd/even cycles are
// timed.
type SyncMode uint8

const (
	// Lockstep drives every INC from one global cycle counter: one
	// odd/even cycle per CompactionPeriod ticks. Deterministic and fast;
	// the default for benchmarks.
	Lockstep SyncMode = iota
	// Async gives every INC its own CycleFSM with a randomized internal
	// delay (the paper's independent clocks); neighbouring cycle counts
	// stay within one of each other by Lemma 1, which the auditor checks.
	Async
)

// String names the mode.
func (m SyncMode) String() string {
	switch m {
	case Lockstep:
		return "lockstep"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("SyncMode(%d)", uint8(m))
	}
}

// SchedulerMode selects the Step implementation: the event-driven
// scheduler skips provably idle work (quiescent buses, empty insertion
// queues, fully-compacted cycles) while the naive scheduler rescans
// everything every tick. Both produce bit-identical observable behaviour
// — Stats, Records, Recorder events and the RNG draw sequence — which the
// differential tests in scheduler_test.go pin down; the naive scheduler
// is retained as the reference oracle.
type SchedulerMode uint8

const (
	// SchedulerAuto selects the package-wide default (event-driven unless
	// overridden via SetDefaultScheduler).
	SchedulerAuto SchedulerMode = iota
	// SchedulerEventDriven maintains activity sets so Step touches only
	// buses, INCs and queues with work due, and Drain can fast-forward
	// across idle stretches.
	SchedulerEventDriven
	// SchedulerNaive rescans every subsystem every tick: the reference
	// implementation the event-driven scheduler is tested against.
	SchedulerNaive
)

// String names the scheduler.
func (s SchedulerMode) String() string {
	switch s {
	case SchedulerAuto:
		return "auto"
	case SchedulerEventDriven:
		return "event"
	case SchedulerNaive:
		return "naive"
	default:
		return fmt.Sprintf("SchedulerMode(%d)", uint8(s))
	}
}

// defaultScheduler is what SchedulerAuto resolves to. Benchmark harnesses
// flip it (see bench_test.go's -rmbsched flag) to measure both paths
// without threading a knob through every experiment Config.
var defaultScheduler = SchedulerEventDriven

// SetDefaultScheduler changes what SchedulerAuto resolves to and returns
// the previous default. It is a process-wide knob for harnesses; it must
// not be called concurrently with NewNetwork.
func SetDefaultScheduler(m SchedulerMode) SchedulerMode {
	prev := defaultScheduler
	if m == SchedulerAuto {
		m = SchedulerEventDriven
	}
	defaultScheduler = m
	return prev
}

// HeadRule selects how a header flit chooses its output port when
// advancing from input level `in`.
type HeadRule uint8

const (
	// HeadFlexible tries straight (in), then one down (in-1), then one up
	// (in+1). Stepping down early only anticipates compaction; this is
	// the default and preserves the paper's utilization property.
	HeadFlexible HeadRule = iota
	// HeadStraightOnly only ever continues at its current level and
	// otherwise waits for compaction to sink it.
	HeadStraightOnly
	// HeadStrictTop pins the head hop to the top segment (k-1): the
	// compaction protocol skips the head hop and the head only advances
	// along the top bus. This is the most literal reading of the paper's
	// insertion rule and the baseline for the head-rule ablation.
	HeadStrictTop
)

// String names the rule.
func (r HeadRule) String() string {
	switch r {
	case HeadFlexible:
		return "flexible"
	case HeadStraightOnly:
		return "straight-only"
	case HeadStrictTop:
		return "strict-top"
	default:
		return fmt.Sprintf("HeadRule(%d)", uint8(r))
	}
}

// Config parameterizes an RMB network simulation.
type Config struct {
	// Nodes is N, the number of ring nodes (PE + INC pairs). Must be at
	// least 2. The paper's odd/even marking assumes an even ring; odd N
	// is accepted (the single parity seam is harmless in simulation, see
	// DESIGN.md) but even N matches the paper.
	Nodes int
	// Buses is k, the number of parallel bus segments between adjacent
	// INCs. Must be at least 1; compaction needs at least 2 to do
	// anything.
	Buses int

	// Mode selects lockstep or asynchronous odd/even cycle timing.
	Mode SyncMode
	// HeadRule selects the header advance policy.
	HeadRule HeadRule
	// Scheduler selects the Step implementation (event-driven or the
	// naive reference). SchedulerAuto (the zero value) resolves to the
	// package default; observable behaviour is identical in both.
	Scheduler SchedulerMode

	// DisableCompaction switches the compaction protocol off entirely
	// (for the ablation benchmark). New circuits then stay on the
	// segments the head claimed.
	DisableCompaction bool

	// CompactionPeriod is the number of ticks per odd/even cycle in
	// Lockstep mode (default 1).
	CompactionPeriod int

	// MaxSendPerNode and MaxRecvPerNode bound concurrently active
	// outgoing/incoming messages per node. The paper's base design uses 1
	// for both; larger values implement the "multiple send/receive
	// messages per node" extension from its future-work list.
	MaxSendPerNode int
	MaxRecvPerNode int

	// RetryBase and RetryCap bound the randomized exponential backoff (in
	// ticks) applied after a Nack before a message is reinserted.
	// Defaults: 4 and 256.
	RetryBase int
	RetryCap  int

	// HeadTimeout converts a header blocked for about that many
	// consecutive ticks into a self-refusal (tear down, back off and
	// retry); each attempt draws its actual limit uniformly from
	// [T/2, 3T/2) so contending senders desynchronize. Without the valve,
	// a saturated ring can gridlock: blocked headers hold their partial
	// virtual buses in a cyclic wait, which the paper's protocol does not
	// break on its own (its Theorem 1 is conditioned on a free segment
	// existing). Zero selects the default of 4×Nodes ticks;
	// HeadTimeoutDisabled (-1) disables the valve for experiments that
	// reproduce the paper's unguarded behaviour.
	HeadTimeout int

	// FlitCycle is the number of ticks between successive data flits
	// launched by the source (default 1).
	FlitCycle int

	// DackWindow, when positive, limits the source to that many
	// unacknowledged data flits in flight (Dack-based flow control). Zero
	// means the window never throttles, modelling a clean circuit.
	DackWindow int

	// JitterMax is the maximum extra internal delay (ticks) an INC takes
	// to finish its datapath work in Async mode (default 3).
	JitterMax int

	// Recorder, when non-nil, is installed as the network's event
	// recorder at construction — equivalent to calling SetRecorder
	// immediately after NewNetwork, but early enough to observe the
	// Submit events of messages sent before the first Step. Use Tee to
	// attach several observers (the trace figures and the telemetry
	// tracer, say) to one run. Recorders observe; they never influence
	// the simulation, so a run's trace is identical with or without one.
	// Excluded from JSON: a recorder is a live object, not configuration
	// data, so serialized configs (rmbd job specs, checkpoints) omit it.
	Recorder Recorder `json:"-"`

	// Faults schedules deterministic segment and INC fail/repair events
	// applied through the tick loop (see FaultPlan and ChaosPlan). The
	// zero plan injects nothing and leaves the run tick-for-tick
	// identical to a fault-free one.
	Faults FaultPlan

	// Seed seeds the deterministic PRNG.
	Seed uint64

	// Audit enables full invariant checking after every tick. Expensive;
	// meant for tests.
	Audit bool
}

// Validation errors returned by Config.Validate.
var (
	ErrTooFewNodes = errors.New("core: config needs at least 2 nodes")
	ErrTooFewBuses = errors.New("core: config needs at least 1 bus")
)

// Validate checks the configuration and reports the first problem.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("%w (got %d)", ErrTooFewNodes, c.Nodes)
	}
	if c.Buses < 1 {
		return fmt.Errorf("%w (got %d)", ErrTooFewBuses, c.Buses)
	}
	if c.CompactionPeriod < 0 || c.FlitCycle < 0 || c.JitterMax < 0 ||
		c.RetryBase < 0 || c.RetryCap < 0 ||
		c.MaxSendPerNode < 0 || c.MaxRecvPerNode < 0 || c.DackWindow < 0 {
		return errors.New("core: config fields must be non-negative")
	}
	if c.HeadTimeout < HeadTimeoutDisabled {
		return fmt.Errorf("core: HeadTimeout %d invalid; use ticks, 0 for default, or HeadTimeoutDisabled", c.HeadTimeout)
	}
	if c.Scheduler > SchedulerNaive {
		return fmt.Errorf("core: unknown scheduler mode %d", c.Scheduler)
	}
	if err := c.Faults.Validate(c.Nodes, c.Buses); err != nil {
		return err
	}
	return nil
}

// HeadTimeoutDisabled disables the head starvation safety valve.
const HeadTimeoutDisabled = -1

// WithDefaults returns the effective configuration: every zero-valued
// knob replaced by its documented default, exactly as NewNetwork resolves
// it (Config() on a live network reports the same thing). Layers that
// need a canonical form of a config without building a network — the
// service run cache hashes one to content-address deterministic results —
// use this so their canonicalization can never drift from construction.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero-valued knobs with their documented defaults.
func (c Config) withDefaults() Config {
	if c.CompactionPeriod == 0 {
		c.CompactionPeriod = 1
	}
	if c.MaxSendPerNode == 0 {
		c.MaxSendPerNode = 1
	}
	if c.MaxRecvPerNode == 0 {
		c.MaxRecvPerNode = 1
	}
	// The backoff window must stay positive: scheduleRequeue hands it to
	// RNG.Intn, which panics on a non-positive bound. Clamp rather than
	// reject so partially filled configs keep working.
	if c.RetryBase < 1 {
		c.RetryBase = 4
	}
	if c.RetryCap == 0 {
		c.RetryCap = 256
	}
	if c.RetryCap < c.RetryBase {
		c.RetryCap = c.RetryBase
	}
	if c.FlitCycle == 0 {
		c.FlitCycle = 1
	}
	if c.HeadTimeout == 0 {
		c.HeadTimeout = 4 * c.Nodes
	} else if c.HeadTimeout == HeadTimeoutDisabled {
		c.HeadTimeout = 0
	}
	if c.JitterMax == 0 {
		c.JitterMax = 3
	}
	if c.Scheduler == SchedulerAuto {
		c.Scheduler = defaultScheduler
	}
	return c
}
