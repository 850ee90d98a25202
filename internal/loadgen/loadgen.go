// Package loadgen drives a core RMB network with open-loop traffic:
// messages arrive over time according to a configurable arrival process
// instead of all at tick zero, which is what the latency-versus-offered-
// load experiments (the classic interconnect evaluation curve) need.
//
// Offered load is expressed as the expected number of new messages per
// node per tick. The arrival process is an independent Bernoulli trial
// per node per tick at that probability — inter-arrival gaps therefore
// come out geometrically distributed, but the generator consumes exactly
// one PRNG draw per node per tick (plus the destination draws), not one
// draw per message. That draw discipline is part of the reproducibility
// contract: it is what lets a checkpointed run resume mid-stream and
// consume the identical sequence an uninterrupted run would have.
//
// Traffic can be driven in one shot (Run) or incrementally (Driver),
// which steps one tick at a time and can surrender its small resume state
// (State) alongside a core network checkpoint — the seam rmbd's
// checkpoint/resume is built on.
//
// The driver measures through the network's delivery hook: each measured
// message is folded into a count and an exact integer-tick latency
// histogram as it finishes, so a run keeps no per-message history and
// its memory follows the live ring, not the run's length.
package loadgen

import (
	"fmt"
	"slices"

	"rmb/internal/core"
	"rmb/internal/metrics"
	"rmb/internal/sim"
)

// Config parameterizes an open-loop run.
type Config struct {
	// Rate is the offered load: expected messages per node per tick,
	// which is the per-node per-tick Bernoulli arrival probability. Must
	// be in (0, 1]: 1 means every node submits every tick (the heaviest
	// expressible load), and anything above 1 is not a probability — the
	// generator cannot offer it, so it is rejected rather than silently
	// clamped.
	Rate float64
	// PayloadLen is the data flit count per message.
	PayloadLen int
	// Warmup and Measure are the tick spans: messages submitted during
	// warmup are excluded from latency statistics.
	Warmup, Measure sim.Tick
	// Drain caps the extra ticks allowed to flush in-flight messages
	// after the measurement window. Zero selects the default of
	// 100×Nodes ticks; negative is rejected.
	Drain sim.Tick
	// Pattern chooses destinations (default UniformDest).
	Pattern DestFn
	// Seed drives arrivals and destinations.
	Seed uint64
	// Faults optionally injects a fault schedule before traffic starts
	// (chaos mode). The plan's ticks are absolute run ticks.
	Faults core.FaultPlan
}

// validated checks the configuration and fills defaults (the network is
// needed for the Drain default).
func (cfg Config) validated(n *core.Network) (Config, error) {
	if cfg.Rate <= 0 {
		return cfg, fmt.Errorf("loadgen: rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Rate > 1 {
		return cfg, fmt.Errorf("loadgen: rate is a per-node per-tick arrival probability and cannot exceed 1, got %v", cfg.Rate)
	}
	if cfg.Measure <= 0 {
		return cfg, fmt.Errorf("loadgen: measurement window must be positive")
	}
	if cfg.Drain < 0 {
		return cfg, fmt.Errorf("loadgen: drain budget must be non-negative, got %v", cfg.Drain)
	}
	if cfg.Pattern == nil {
		cfg.Pattern = UniformDest
	}
	if cfg.Drain == 0 {
		cfg.Drain = 100 * sim.Tick(n.Config().Nodes)
	}
	return cfg, nil
}

// DestFn picks a destination for a new message from src on an n-node
// ring.
type DestFn func(src, n int, rng *sim.RNG) int

// UniformDest picks any other node uniformly.
func UniformDest(src, n int, rng *sim.RNG) int {
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// NeighbourDest always picks the clockwise neighbour.
func NeighbourDest(src, n int, _ *sim.RNG) int { return (src + 1) % n }

// HotspotDest picks node 0 with probability 0.5, else uniform.
func HotspotDest(src, n int, rng *sim.RNG) int {
	if src != 0 && rng.Float64() < 0.5 {
		return 0
	}
	return UniformDest(src, n, rng)
}

// Result summarizes an open-loop run.
type Result struct {
	// OfferedRate echoes the configured load; AcceptedRate is messages
	// actually delivered per node per tick over the measurement window.
	OfferedRate, AcceptedRate float64
	// Submitted, Delivered count measured-window messages.
	Submitted, Delivered int
	// Latency summarizes enqueue-to-delivery latency of measured
	// messages.
	Latency metrics.Sample
	// MeanUtilization is the average busy-segment fraction.
	MeanUtilization float64
	// Saturated reports that the network could not keep up: the backlog
	// at the end of the measurement window exceeded what the drain
	// budget could flush.
	Saturated bool
	// FaultTeardowns counts circuits torn down mid-flight by faults;
	// MeanFaultySegments is the time-averaged number of unusable
	// segments. Both are zero for fault-free runs.
	FaultTeardowns     int64
	MeanFaultySegments float64
	// Stats is the network's full counter set at the end of the run
	// (warmup plus measurement plus drain), for consumers that aggregate
	// beyond the derived headline numbers above.
	Stats core.Stats
}

// State is a Driver's resumable position in the workload: everything the
// generator holds outside the network itself. Serialized alongside a
// core checkpoint it lets ResumeDriver continue the identical arrival
// stream and measurement — the simulation clock lives in (and is
// restored with) the network, so the state is the PRNG position, the
// running submission count and the measurements folded so far.
type State struct {
	// RNG is the workload PRNG position (sim.RNG.State).
	RNG uint64
	// Submitted counts measured-window submissions so far.
	Submitted int
	// Delivered counts measured-window messages delivered so far.
	Delivered int
	// Latency is those messages' enqueue-to-delivery latency histogram:
	// (ticks, count) pairs by ascending ticks, counts positive and
	// summing to Delivered.
	Latency []int64
}

// Driver drives the open-loop workload one tick at a time, so a caller
// can interleave traffic generation with cancellation checks, telemetry
// flushes, or checkpoints. Run is the one-shot wrapper; both produce
// bit-identical runs for the same network and configuration.
type Driver struct {
	n        *core.Network
	cfg      Config
	rng      *sim.RNG
	payload  []uint64
	end      sim.Tick // warmup + measure
	deadline sim.Tick // end + drain
	state    State    // Latency unused: the histogram lives in lat
	// lat[t] counts measured messages delivered t ticks after enqueue.
	lat  []int64
	done bool
}

// NewDriver validates the configuration, injects the fault plan (if any)
// and prepares a driver for a freshly constructed network.
func NewDriver(n *core.Network, cfg Config) (*Driver, error) {
	cfg, err := cfg.validated(n)
	if err != nil {
		return nil, err
	}
	if len(cfg.Faults.Events) > 0 {
		if err := n.InjectFaults(cfg.Faults); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
	}
	d := newDriver(n, cfg)
	d.state.RNG = d.rng.State()
	return d, nil
}

// ResumeDriver prepares a driver that continues a checkpointed run on a
// network restored from the matching core checkpoint. The fault plan is
// NOT re-injected — pending fault timers already live inside the network
// checkpoint — and the workload PRNG resumes from st rather than the
// seed, so the arrival stream continues exactly where it stopped.
func ResumeDriver(n *core.Network, cfg Config, st State) (*Driver, error) {
	cfg, err := cfg.validated(n)
	if err != nil {
		return nil, err
	}
	d := newDriver(n, cfg)
	d.rng.Restore(st.RNG)
	if err := d.restoreLatency(st); err != nil {
		return nil, err
	}
	d.state = st
	d.state.Latency = nil
	return d, nil
}

// restoreLatency rebuilds the dense histogram from a State's pairs.
func (d *Driver) restoreLatency(st State) error {
	if len(st.Latency)%2 != 0 {
		return fmt.Errorf("loadgen: latency histogram has an odd number of entries (%d)", len(st.Latency))
	}
	total := int64(0)
	for i := 0; i < len(st.Latency); i += 2 {
		t, c := st.Latency[i], st.Latency[i+1]
		if t < 0 || c <= 0 || (i > 0 && t <= st.Latency[i-2]) || t > int64(d.deadline) {
			return fmt.Errorf("loadgen: latency histogram entry (%d, %d) out of order or range", t, c)
		}
		d.grow(int(t))
		d.lat[t] = c
		total += c
	}
	if total != int64(st.Delivered) {
		return fmt.Errorf("loadgen: latency histogram counts %d deliveries, state says %d", total, st.Delivered)
	}
	return nil
}

func newDriver(n *core.Network, cfg Config) *Driver {
	deadline := cfg.Warmup + cfg.Measure + cfg.Drain
	d := &Driver{
		n:        n,
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x10ad),
		payload:  make([]uint64, cfg.PayloadLen),
		end:      cfg.Warmup + cfg.Measure,
		deadline: deadline,
		// No latency exceeds the deadline, so one allocation covers a
		// short run's whole range; longer runs grow past 4096 ticks.
		lat: make([]int64, 0, min(deadline+1, 4096)),
	}
	n.OnDeliver(d.observe)
	return d
}

// observe is the driver's delivery hook. Every message in the run came
// from a Send in Step, and its Enqueued tick is the loop tick it was
// submitted at, so the warmup filter falls out of the record itself.
func (d *Driver) observe(rec core.MsgRecord, _ []uint64, _ []core.NodeID) {
	if rec.Enqueued < d.cfg.Warmup {
		return
	}
	t := int(rec.DeliverLatency())
	d.grow(t)
	d.lat[t]++
	d.state.Delivered++
}

// grow makes room in the histogram for latency t.
func (d *Driver) grow(t int) {
	if t >= len(d.lat) {
		d.lat = slices.Grow(d.lat, t+1-len(d.lat))[:t+1]
	}
}

// Step advances the run by one tick (injection phase) or one drain hop
// (which may fast-forward across provably idle stretches). It reports
// whether the run still has work left; once it returns false the run is
// complete and Result may be taken.
func (d *Driver) Step() (bool, error) {
	if d.done {
		return false, nil
	}
	now := d.n.Now()
	switch {
	case now < d.end:
		nodes := d.n.Config().Nodes
		for node := 0; node < nodes; node++ {
			if d.rng.Float64() >= d.cfg.Rate {
				continue
			}
			dst := d.cfg.Pattern(node, nodes, d.rng)
			if _, err := d.n.Send(core.NodeID(node), core.NodeID(dst), d.payload); err != nil {
				return false, err
			}
			if now >= d.cfg.Warmup {
				d.state.Submitted++
			}
		}
		d.n.Step()
	case !d.n.Idle() && now < d.deadline:
		// Flush the backlog. FastForward lets the drain skip dead air
		// between retry deadlines (a no-op unless the network is
		// quiescent-but-armed).
		d.n.FastForward(d.deadline - now - 1)
		d.n.Step()
	default:
		d.done = true
	}
	d.state.RNG = d.rng.State()
	return !d.done, nil
}

// Done reports whether the run has completed (injection and drain).
func (d *Driver) Done() bool { return d.done }

// Draining reports whether the injection window is over and only the
// backlog flush remains.
func (d *Driver) Draining() bool { return !d.done && d.n.Now() >= d.end }

// State returns the driver's resumable position. Valid at any tick
// boundary; pair it with a core checkpoint taken at the same boundary.
func (d *Driver) State() State {
	st := d.state
	for t, c := range d.lat {
		if c > 0 {
			st.Latency = append(st.Latency, int64(t), c)
		}
	}
	return st
}

// Network returns the driven network.
func (d *Driver) Network() *core.Network { return d.n }

// Result summarizes the run. It is meaningful once Step has returned
// false (earlier calls summarize the run so far).
func (d *Driver) Result() Result {
	n := d.n
	res := Result{OfferedRate: d.cfg.Rate, Submitted: d.state.Submitted, Delivered: d.state.Delivered}
	res.Saturated = !n.Idle()

	// Latencies are integer ticks, so the Sample's float sum is exact in
	// any order and its percentiles sort: rebuilt from the histogram, it
	// has the Count, Mean and percentiles of the per-message fold.
	for t, c := range d.lat {
		for ; c > 0; c-- {
			res.Latency.Add(float64(t))
		}
	}
	res.AcceptedRate = float64(res.Delivered) / float64(d.cfg.Measure) / float64(n.Config().Nodes)
	st := n.Stats()
	res.MeanUtilization = st.MeanUtilization(n.Config().Nodes * n.Config().Buses)
	res.FaultTeardowns = st.FaultTeardowns
	res.MeanFaultySegments = st.MeanFaultySegments()
	res.Stats = st
	return res
}

// Run drives the network with open-loop traffic and measures steady-state
// latency. The network must be freshly constructed.
func Run(n *core.Network, cfg Config) (Result, error) {
	d, err := NewDriver(n, cfg)
	if err != nil {
		return Result{}, err
	}
	for {
		more, err := d.Step()
		if err != nil {
			return d.Result(), err
		}
		if !more {
			return d.Result(), nil
		}
	}
}
