package telemetry

import (
	"io"
	"reflect"
	"testing"

	"rmb/internal/core"
	"rmb/internal/sim"
)

// observerCase builds the shared workload for one differential seed:
// a small ring with contention (and, on every fourth seed, a fault
// episode) so the event stream exercises retries, backoff, compaction
// and fault teardowns.
func observerCase(seed uint64, sched core.SchedulerMode) (core.Config, func(n *core.Network) error) {
	cfg := core.Config{Nodes: 10, Buses: 3, Seed: seed, Scheduler: sched}
	if seed%4 == 0 {
		cfg.Faults = core.FaultPlan{Events: []core.FaultEvent{
			{At: sim.Tick(5 + seed%7), Kind: core.FaultSegmentFail, Node: core.NodeID(seed % 10), Level: 2},
			{At: sim.Tick(50 + seed%11), Kind: core.FaultSegmentRepair, Node: core.NodeID(seed % 10), Level: 2},
		}}
	}
	traffic := func(n *core.Network) error {
		for s := 0; s < 8; s++ {
			dst := (s*3 + int(seed)) % 10
			if dst == s {
				dst = (dst + 1) % 10
			}
			if _, err := n.Send(core.NodeID(s), core.NodeID(dst), make([]uint64, 3+s%4)); err != nil {
				return err
			}
		}
		return nil
	}
	return cfg, traffic
}

// stepRun executes one run with an explicit Step loop (identical loop
// shape for baseline and observed runs) and returns the captured event
// stream, final stats and final tick. When observe is true the run
// additionally carries a tracer, a JSONL writer and per-tick snapshot
// pulls feeding an observatory + sampler — the full telemetry stack.
func stepRun(t *testing.T, seed uint64, sched core.SchedulerMode, observe bool) ([]Event, core.Stats, sim.Tick) {
	t.Helper()
	cfg, traffic := observerCase(seed, sched)

	var events []Event
	capture := &Adapter{Observe: func(e Event) { events = append(events, e) }}
	var obs *Observatory
	if observe {
		tracer := NewTracer()
		jw := NewWriter(io.Discard)
		cfg.Recorder = core.Tee(capture, tracer.Recorder(), &Adapter{Observe: jw.Observe})
		obs = NewObservatory(NewSampler(1, 32))
	} else {
		cfg.Recorder = capture
	}

	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatalf("seed %d: NewNetwork: %v", seed, err)
	}
	if err := traffic(n); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for steps := 0; !n.Idle(); steps++ {
		if steps > 300_000 {
			t.Fatalf("seed %d sched %v: no quiescence after %d steps", seed, sched, steps)
		}
		n.Step()
		if observe {
			obs.Publish(n.Snapshot(), n.Stats())
		}
	}
	return events, n.Stats(), n.Now()
}

// TestZeroObserverEffect is the 32-seed differential pinning the
// tentpole's central claim: attaching the entire telemetry stack
// (tracer + JSONL writer through a tee, plus per-tick snapshot pulls
// into an observatory) leaves the event stream, the Stats and the
// final tick of every scheduler byte-identical to an unobserved run —
// and the two schedulers identical to each other.
func TestZeroObserverEffect(t *testing.T) {
	scheds := []core.SchedulerMode{core.SchedulerNaive, core.SchedulerEventDriven}
	for seed := uint64(1); seed <= 32; seed++ {
		var refEvents []Event
		var refStats core.Stats
		var refTick sim.Tick
		for i, sched := range scheds {
			base, baseStats, baseTick := stepRun(t, seed, sched, false)
			obs, obsStats, obsTick := stepRun(t, seed, sched, true)
			if !reflect.DeepEqual(base, obs) {
				t.Fatalf("seed %d sched %v: telemetry changed the event stream (%d vs %d events)",
					seed, sched, len(base), len(obs))
			}
			if baseStats != obsStats {
				t.Fatalf("seed %d sched %v: telemetry changed stats:\n base %+v\n obs  %+v",
					seed, sched, baseStats, obsStats)
			}
			if baseTick != obsTick {
				t.Fatalf("seed %d sched %v: telemetry changed the final tick: %v vs %v",
					seed, sched, baseTick, obsTick)
			}
			if i == 0 {
				refEvents, refStats, refTick = obs, obsStats, obsTick
				continue
			}
			if !reflect.DeepEqual(refEvents, obs) {
				t.Fatalf("seed %d: %v diverged from %v under observation", seed, sched, scheds[0])
			}
			if refStats != obsStats || refTick != obsTick {
				t.Fatalf("seed %d: %v stats/tick diverged from %v", seed, sched, scheds[0])
			}
		}
	}
}
