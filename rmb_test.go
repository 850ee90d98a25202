package rmb_test

import (
	"testing"
	"time"

	"rmb"
)

func TestFacadeCoreRoundTrip(t *testing.T) {
	net, err := rmb.New(rmb.Config{Nodes: 8, Buses: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := rmb.NewHistory(net)
	id, err := net.Send(0, 4, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	got := hist.Delivered()
	if len(got) != 1 || got[0].ID != id || got[0].Payload[0] != 7 {
		t.Fatalf("delivered %+v", got)
	}
}

func TestFacadeRunPattern(t *testing.T) {
	net, err := rmb.New(rmb.Config{Nodes: 12, Buses: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rmb.NewRNG(5)
	p := rmb.RandomPermutation(12, rng)
	res, err := rmb.RunPattern(net, p, 4, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Stats.Delivered) != len(p.Demands) {
		t.Errorf("delivered %d/%d", res.Stats.Delivered, len(p.Demands))
	}
	if res.CompetitiveRatio <= 0 {
		t.Errorf("ratio %v", res.CompetitiveRatio)
	}
	if res.MeanLatency <= 0 || res.MaxLatency < rmb.Tick(res.MeanLatency) {
		t.Errorf("latencies mean=%v max=%v", res.MeanLatency, res.MaxLatency)
	}
	if res.LowerBoundTicks > res.OfflineMakespan {
		t.Errorf("lower bound %d above offline makespan %d", res.LowerBoundTicks, res.OfflineMakespan)
	}
}

func TestFacadeRunPatternValidation(t *testing.T) {
	net, err := rmb.New(rmb.Config{Nodes: 8, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	wrong := rmb.Pattern{Nodes: 16, Demands: []rmb.Demand{{Src: 0, Dst: 9}}}
	if _, err := rmb.RunPattern(net, wrong, 1, 1000); err == nil {
		t.Error("node-count mismatch accepted")
	}
	bad := rmb.Pattern{Nodes: 8, Demands: []rmb.Demand{{Src: 2, Dst: 2}}}
	if _, err := rmb.RunPattern(net, bad, 1, 1000); err == nil {
		t.Error("self-send pattern accepted")
	}
}

func TestFacadeAsync(t *testing.T) {
	net, err := rmb.NewAsync(rmb.AsyncConfig{Nodes: 6, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	got, err := net.SendAndAwait([]rmb.AsyncDemand{
		{Src: 0, Dst: 3, Payload: []uint64{1}},
		{Src: 4, Dst: 1, Payload: []uint64{2}},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
}

func TestFacadeAnalysis(t *testing.T) {
	rows := rmb.CompareArchitectures(256, 8)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	c := rmb.RMBCosts(256, 8)
	if c.Links != 2048 || c.CrossPoints != 6144 {
		t.Errorf("RMB costs %+v", c)
	}
}

func TestFacadeOfflineSchedule(t *testing.T) {
	p := rmb.RingShift(12, 3)
	s := rmb.OfflineGreedy(p, 3)
	if s.RoundCount() < rmb.OfflineLowerBoundRounds(p, 3) {
		t.Error("greedy below lower bound")
	}
	if rmb.CircuitTicks(3, 5) != 16 {
		t.Errorf("CircuitTicks(3,5) = %d", rmb.CircuitTicks(3, 5))
	}
}

func TestFacadeConstants(t *testing.T) {
	cfg := rmb.Config{Nodes: 4, Buses: 2, Mode: rmb.Async, HeadRule: rmb.HeadStrictTop, HeadTimeout: rmb.HeadTimeoutDisabled}
	if _, err := rmb.New(cfg); err != nil {
		t.Fatalf("config with re-exported constants rejected: %v", err)
	}
}
