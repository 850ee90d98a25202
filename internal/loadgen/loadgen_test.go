package loadgen

import (
	"math"
	"reflect"
	"testing"

	"rmb/internal/core"
	"rmb/internal/metrics"
	"rmb/internal/sim"
)

func freshNet(t *testing.T, k int) *core.Network {
	t.Helper()
	n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: k, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunValidation(t *testing.T) {
	n := freshNet(t, 2)
	if _, err := Run(n, Config{Rate: 0, Measure: 100}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Run(n, Config{Rate: 0.1, Measure: 0}); err == nil {
		t.Error("zero window accepted")
	}
	// Rate is a Bernoulli probability: anything above 1 is unofferable
	// and must be rejected, not silently clamped.
	if _, err := Run(n, Config{Rate: 1.5, Measure: 100}); err == nil {
		t.Error("rate above 1 accepted")
	}
	if _, err := Run(n, Config{Rate: 0.1, Measure: 100, Drain: -1}); err == nil {
		t.Error("negative drain budget accepted")
	}
}

// TestRateOneBoundary pins the inclusive upper boundary: Rate == 1.0 is a
// legal (if brutal) load — every node submits every tick — and must run
// to completion rather than trip the over-1 rejection.
func TestRateOneBoundary(t *testing.T) {
	n := freshNet(t, 4)
	res, err := Run(n, Config{Rate: 1.0, PayloadLen: 1, Measure: 50, Drain: 100, Seed: 6})
	if err != nil {
		t.Fatalf("Rate=1.0 rejected: %v", err)
	}
	// 16 nodes × 50 ticks, every trial fires.
	if want := 16 * 50; res.Submitted != want {
		t.Fatalf("Rate=1.0 submitted %d messages, want %d", res.Submitted, want)
	}
	if !res.Saturated {
		t.Error("full-rate overload not flagged as saturated")
	}
}

// TestDriverMatchesRun proves the incremental Driver and the one-shot Run
// are the same generator: identical Result (including the latency sample
// and full network stats) for the same seed and network parameters.
func TestDriverMatchesRun(t *testing.T) {
	cfg := Config{Rate: 0.01, PayloadLen: 4, Warmup: 100, Measure: 1000, Seed: 9}
	want, err := Run(freshNet(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(freshNet(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		more, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		steps++
	}
	if !d.Done() {
		t.Fatal("driver loop ended but Done() is false")
	}
	if steps == 0 {
		t.Fatal("driver finished without stepping")
	}
	got := d.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("driver result diverged from Run:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestDriverCheckpointResume is the loadgen half of the checkpoint
// contract: stopping a driver mid-injection, checkpointing the network
// plus the driver State, restoring both, and finishing must reproduce the
// uninterrupted run exactly — including under an active fault plan, whose
// pending timers ride in the core checkpoint and must not be re-injected
// on resume.
func TestDriverCheckpointResume(t *testing.T) {
	plan := core.ChaosPlan(16, 3, core.ChaosOptions{
		Seed: 5, Horizon: 2000, SegmentRate: 0.3, INCRate: 0.15,
		MeanDown: 150, MeanUp: 300,
	})
	cfg := Config{Rate: 0.006, PayloadLen: 4, Warmup: 100, Measure: 1200, Drain: 20_000, Seed: 13, Faults: plan}

	want, err := Run(freshNet(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewDriver(freshNet(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if more, err := d.Step(); err != nil {
			t.Fatal(err)
		} else if !more {
			t.Fatal("run completed before the checkpoint tick")
		}
	}
	ckpt, err := d.Network().MarshalCheckpoint()
	if err != nil {
		t.Fatalf("MarshalCheckpoint: %v", err)
	}
	st := d.State()

	restoredNet, err := core.UnmarshalCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("UnmarshalCheckpoint: %v", err)
	}
	d2, err := ResumeDriver(restoredNet, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	for {
		more, err := d2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	got := d2.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result diverged from uninterrupted run:\n got:  %+v\n want: %+v", got, want)
	}
}

func TestLowLoadDeliversEverything(t *testing.T) {
	n := freshNet(t, 3)
	res, err := Run(n, Config{Rate: 0.002, PayloadLen: 4, Warmup: 200, Measure: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("saturated at trivial load")
	}
	if res.Submitted == 0 {
		t.Fatal("no traffic generated; raise rate or window")
	}
	if res.Delivered != res.Submitted {
		t.Errorf("delivered %d of %d at low load", res.Delivered, res.Submitted)
	}
	// At near-zero load, latency approaches the uncontended circuit time:
	// mean distance 8 on a 16-ring -> about 3·8+4 = 28 ticks.
	if m := res.Latency.Mean(); m < 5 || m > 60 {
		t.Errorf("low-load mean latency %v outside the uncontended band", m)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	low, err := Run(freshNet(t, 2), Config{Rate: 0.002, PayloadLen: 4, Warmup: 200, Measure: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(freshNet(t, 2), Config{Rate: 0.02, PayloadLen: 4, Warmup: 200, Measure: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if high.Latency.Mean() <= low.Latency.Mean() {
		t.Errorf("latency did not rise with load: %.1f at 0.002, %.1f at 0.02",
			low.Latency.Mean(), high.Latency.Mean())
	}
}

func TestMoreBusesRaiseSaturation(t *testing.T) {
	// At a load that saturates k=1, k=4 still keeps up (higher accepted
	// rate and far lower latency).
	cfg := Config{Rate: 0.012, PayloadLen: 4, Warmup: 200, Measure: 3000, Seed: 3}
	thin, err := Run(freshNet(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(freshNet(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Latency.Mean() >= thin.Latency.Mean() {
		t.Errorf("k=4 latency %.1f not below k=1 latency %.1f", wide.Latency.Mean(), thin.Latency.Mean())
	}
	if wide.AcceptedRate < thin.AcceptedRate {
		t.Errorf("k=4 accepted %.5f below k=1 %.5f", wide.AcceptedRate, thin.AcceptedRate)
	}
}

func TestDestFns(t *testing.T) {
	rng := sim.NewRNG(5)
	for i := 0; i < 200; i++ {
		src := rng.Intn(16)
		d := UniformDest(src, 16, rng)
		if d == src || d < 0 || d >= 16 {
			t.Fatalf("UniformDest(%d) = %d", src, d)
		}
	}
	if NeighbourDest(15, 16, rng) != 0 {
		t.Error("NeighbourDest wraparound wrong")
	}
	zero := 0
	for i := 0; i < 400; i++ {
		if HotspotDest(5, 16, rng) == 0 {
			zero++
		}
	}
	if zero < 150 {
		t.Errorf("hotspot hit node 0 only %d/400 times", zero)
	}
}

func TestSaturationDetected(t *testing.T) {
	// An absurd offered load on k=1 must be flagged as saturated (the
	// drain budget is deliberately small).
	n := freshNet(t, 1)
	res, err := Run(n, Config{Rate: 0.3, PayloadLen: 8, Warmup: 0, Measure: 1500, Drain: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("overload not flagged as saturated")
	}
	if res.AcceptedRate >= res.OfferedRate {
		t.Errorf("accepted %.4f not below offered %.4f under overload", res.AcceptedRate, res.OfferedRate)
	}
}

// TestChaosMode injects a fault schedule under light open-loop traffic:
// the run must still complete, the fault metrics must surface in the
// Result, and an invalid plan must be rejected before traffic starts.
func TestChaosMode(t *testing.T) {
	plan := core.ChaosPlan(16, 3, core.ChaosOptions{
		Seed: 5, Horizon: 2000, SegmentRate: 0.3, INCRate: 0.15,
		MeanDown: 150, MeanUp: 300,
	})
	n := freshNet(t, 3)
	res, err := Run(n, Config{
		Rate: 0.004, PayloadLen: 4, Warmup: 200, Measure: 1800,
		Drain: 20_000, Seed: 1, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted == 0 || res.Delivered == 0 {
		t.Fatalf("chaos run moved no traffic: %+v", res)
	}
	if res.MeanFaultySegments <= 0 {
		t.Errorf("MeanFaultySegments = %v under a dense fault plan", res.MeanFaultySegments)
	}
	if res.FaultTeardowns != n.Stats().FaultTeardowns {
		t.Errorf("Result.FaultTeardowns = %d, network says %d", res.FaultTeardowns, n.Stats().FaultTeardowns)
	}

	// Fault-free runs report zeroed fault metrics.
	clean, err := Run(freshNet(t, 3), Config{Rate: 0.004, PayloadLen: 4, Warmup: 200, Measure: 1800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean.FaultTeardowns != 0 || clean.MeanFaultySegments != 0 {
		t.Errorf("fault-free run reports fault metrics: %+v", clean)
	}

	// A plan that does not fit the network is rejected up front.
	bad := core.FaultPlan{Events: []core.FaultEvent{{Kind: core.FaultSegmentFail, Node: 99}}}
	if _, err := Run(freshNet(t, 3), Config{Rate: 0.01, Measure: 100, Faults: bad}); err == nil {
		t.Error("invalid fault plan accepted")
	}
}

// TestResultMatchesHistoryFold pins the driver's folded measurement to
// the per-message fold it replaced: over 32 seeds — both sync modes,
// three patterns, warmups, and chaos fault plans on every other seed —
// the Result built from the delivery-hook histogram must equal one
// computed by folding a History's records, with Count, Mean and the
// percentiles of Latency equal bit for bit. Every fourth seed also
// checkpoints mid-run and resumes, so the histogram crosses the State.
func TestResultMatchesHistoryFold(t *testing.T) {
	patterns := []DestFn{UniformDest, NeighbourDest, HotspotDest}
	for seed := uint64(0); seed < 32; seed++ {
		ccfg := core.Config{Nodes: 12, Buses: 2 + int(seed%3), Seed: seed, Mode: core.SyncMode(seed % 2)}
		cfg := Config{
			Rate: 0.01 + 0.01*float64(seed%4), PayloadLen: int(seed % 5),
			Warmup: sim.Tick(50 * (seed % 3)), Measure: 600, Drain: 20_000,
			Pattern: patterns[seed%3], Seed: seed + 100,
		}
		if seed%2 == 1 {
			cfg.Faults = core.ChaosPlan(ccfg.Nodes, ccfg.Buses, core.ChaosOptions{
				Seed: seed, Horizon: 1500, SegmentRate: 0.25, INCRate: 0.1, MeanDown: 100, MeanUp: 250,
			})
		}
		n, err := core.NewNetwork(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		hist := core.NewHistory(n)
		d, err := NewDriver(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		for steps := 0; ; steps++ {
			if seed%4 == 0 && steps == 300 {
				// The restored network has no history; fold the
				// uninterrupted run's records instead and resume a copy.
				ckpt, err := d.Network().MarshalCheckpoint()
				if err != nil {
					t.Fatal(err)
				}
				rn, err := core.UnmarshalCheckpoint(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				d2, err := ResumeDriver(rn, cfg, d.State())
				if err != nil {
					t.Fatal(err)
				}
				for more := true; more; {
					if more, err = d2.Step(); err != nil {
						t.Fatal(err)
					}
				}
				want = d2.Result()
			}
			more, err := d.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
		}
		got := d.Result()
		if seed%4 == 0 && !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: resumed result diverged:\n got:  %+v\n want: %+v", seed, want, got)
		}
		var fold metrics.Sample
		delivered := 0
		hist.EachRecord(func(r core.MsgRecord) {
			if r.Done && r.Enqueued >= cfg.Warmup {
				delivered++
				fold.Add(float64(r.DeliverLatency()))
			}
		})
		if got.Delivered != delivered || got.Latency.Count() != fold.Count() {
			t.Fatalf("seed %d: driver counted %d deliveries (%d samples), history %d", seed, got.Delivered, got.Latency.Count(), delivered)
		}
		if got.Delivered == 0 {
			t.Fatalf("seed %d: nothing delivered; the comparison is vacuous", seed)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !same(got.Latency.Mean(), fold.Mean()) {
			t.Fatalf("seed %d: mean %v, history fold %v", seed, got.Latency.Mean(), fold.Mean())
		}
		for _, p := range []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100} {
			if a, b := got.Latency.Percentile(p), fold.Percentile(p); !same(a, b) {
				t.Fatalf("seed %d: p%v %v, history fold %v", seed, p, a, b)
			}
		}
	}
}
