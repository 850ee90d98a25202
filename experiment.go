package rmb

import (
	"fmt"

	"rmb/internal/loadgen"
	"rmb/internal/schedule"
	"rmb/internal/sim"
	"rmb/internal/workload"
)

// Workload generation.
type (
	// Pattern is a set of (src, dst) demands over n nodes.
	Pattern = workload.Pattern
	// Demand is one point-to-point requirement.
	Demand = workload.Demand
	// RNG is the deterministic generator used across the library.
	RNG = sim.RNG
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// Workload generators re-exported for experiment scripts.
var (
	// RandomPermutation draws a full fixed-point-free permutation.
	RandomPermutation = workload.RandomPermutation
	// RandomHPermutation draws an h-permutation (h distinct sources to h
	// distinct destinations).
	RandomHPermutation = workload.RandomHPermutation
	// RingShift pairs node i with node i+shift.
	RingShift = workload.RingShift
	// UniformRandom draws m independent random demands.
	UniformRandom = workload.UniformRandom
	// Hotspot biases destinations toward one node.
	Hotspot = workload.Hotspot
	// BitReversal, Transpose and PerfectShuffle are the classic
	// structured permutations.
	BitReversal    = workload.BitReversal
	Transpose      = workload.Transpose
	PerfectShuffle = workload.PerfectShuffle
)

// PatternResult reports one pattern routed to completion on the core
// simulator.
type PatternResult struct {
	// Pattern names the routed workload.
	Pattern string
	// Ticks is the completion time.
	Ticks Tick
	// Stats copies the network counters at completion.
	Stats Stats
	// MeanLatency and MaxLatency summarize per-message delivery
	// latencies.
	MeanLatency float64
	MaxLatency  Tick
	// OfflineMakespan is the greedy off-line schedule's completion time
	// for the same pattern, payload and bus count; CompetitiveRatio is
	// Ticks/OfflineMakespan (the paper's proposed metric).
	OfflineMakespan  int
	CompetitiveRatio float64
	// LowerBoundTicks is the congestion/distance lower bound.
	LowerBoundTicks int
}

// RunPattern submits every demand of the pattern at tick zero with the
// given payload length, drains the network, and reports completion
// statistics together with the off-line comparison. The network must be
// fresh (nothing previously submitted); RunPattern attaches a History to
// it to read the messages' latencies.
func RunPattern(n *Network, p Pattern, payloadLen int, maxTicks Tick) (PatternResult, error) {
	if err := p.Validate(); err != nil {
		return PatternResult{}, err
	}
	if p.Nodes != n.Config().Nodes {
		return PatternResult{}, fmt.Errorf("rmb: pattern spans %d nodes but network has %d", p.Nodes, n.Config().Nodes)
	}
	hist := NewHistory(n)
	payload := make([]uint64, payloadLen)
	for i := range payload {
		payload[i] = uint64(i)
	}
	for _, d := range p.Demands {
		if _, err := n.Send(NodeID(d.Src), NodeID(d.Dst), payload); err != nil {
			return PatternResult{}, err
		}
	}
	if err := n.Drain(maxTicks); err != nil {
		return PatternResult{}, fmt.Errorf("rmb: routing %s: %w", p.Name, err)
	}
	res := PatternResult{
		Pattern: p.Name,
		Ticks:   n.Now(),
		Stats:   n.Stats(),
	}
	var sum float64
	count := 0
	hist.EachRecord(func(r MsgRecord) {
		if !r.Done {
			return
		}
		lat := r.DeliverLatency()
		sum += float64(lat)
		count++
		if lat > res.MaxLatency {
			res.MaxLatency = lat
		}
	})
	if count > 0 {
		res.MeanLatency = sum / float64(count)
	}
	k := n.Config().Buses
	res.OfflineMakespan = schedule.Greedy(p, k).Makespan(payloadLen)
	res.LowerBoundTicks = schedule.LowerBoundTicks(p, k, payloadLen)
	if res.OfflineMakespan > 0 {
		res.CompetitiveRatio = float64(res.Ticks) / float64(res.OfflineMakespan)
	}
	return res, nil
}

// Offline scheduling re-exports.
type (
	// Schedule is an off-line round schedule.
	Schedule = schedule.Schedule
)

// OfflineGreedy builds the first-fit-decreasing off-line schedule for a
// pattern on a k-bus ring.
func OfflineGreedy(p Pattern, k int) Schedule { return schedule.Greedy(p, k) }

// OfflineLowerBoundRounds is the congestion bound ceil(maxLoad/k).
func OfflineLowerBoundRounds(p Pattern, k int) int { return schedule.LowerBoundRounds(p, k) }

// CircuitTicks is the cost model for one dedicated circuit of distance d
// with p data flits, matched to the simulator's timing.
func CircuitTicks(d, p int) int { return schedule.CircuitTicks(d, p) }

// Open-loop traffic (latency-versus-offered-load studies).
type (
	// OpenLoopConfig parameterizes timed arrivals: rate in messages per
	// node per tick, warmup/measurement windows, destination pattern.
	OpenLoopConfig = loadgen.Config
	// OpenLoopResult reports accepted rate, latency distribution and
	// saturation.
	OpenLoopResult = loadgen.Result
)

// Destination pickers for open-loop traffic.
var (
	// UniformDest picks any other node uniformly.
	UniformDest = loadgen.UniformDest
	// NeighbourDest always picks the clockwise neighbour.
	NeighbourDest = loadgen.NeighbourDest
	// HotspotDest biases half the traffic toward node 0.
	HotspotDest = loadgen.HotspotDest
)

// RunOpenLoop drives a fresh network with open-loop traffic and measures
// steady-state latency and accepted throughput.
func RunOpenLoop(n *Network, cfg OpenLoopConfig) (OpenLoopResult, error) {
	return loadgen.Run(n, cfg)
}
