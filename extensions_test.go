package rmb_test

import (
	"testing"

	"rmb"
)

func TestFacadeDuplex(t *testing.T) {
	n, err := rmb.NewDuplex(rmb.DuplexConfig{Nodes: 12, Buses: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.Send(0, 10, []uint64{5}) // counter-clockwise is shorter
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	got := n.Delivered()
	if len(got) != 1 || got[0].Dst != 10 {
		t.Fatalf("delivered %+v", got)
	}
	rec, ok := n.Record(h)
	if !ok || rec.Distance != 2 {
		t.Fatalf("record %+v ok=%v", rec, ok)
	}
}

func TestFacadeDuplexPolicies(t *testing.T) {
	n, err := rmb.NewDuplex(rmb.DuplexConfig{Nodes: 8, Buses: 2, Policy: rmb.AlwaysClockwise})
	if err != nil {
		t.Fatal(err)
	}
	if dir := n.ChooseDirection(0, 7); dir.String() != "clockwise" {
		t.Errorf("policy constant not honoured: %v", dir)
	}
	if _, err := rmb.NewDuplex(rmb.DuplexConfig{Nodes: 8, Buses: 2, Policy: rmb.ShortestPath}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGrid(t *testing.T) {
	g, err := rmb.NewGrid(rmb.GridConfig{Width: 4, Height: 4, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Send(0, 15, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	got := g.Delivered()
	if len(got) != 1 || got[0].Src != 0 || got[0].Dst != 15 {
		t.Fatalf("delivered %+v", got)
	}
}

func TestFacadeModular(t *testing.T) {
	m, err := rmb.NewModular(rmb.ModuleConfig{
		Modules: 3, NodesPerModule: 4,
		LocalBuses: 2, TrunkBuses: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(1, 9, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	got := m.Delivered()
	if len(got) != 1 || got[0].Phases != 3 {
		t.Fatalf("delivered %+v", got)
	}
}

func TestFacadeMulticast(t *testing.T) {
	n, err := rmb.New(rmb.Config{Nodes: 10, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := rmb.NewHistory(n)
	if _, err := n.SendMulticast(0, []rmb.NodeID{3, 7}, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Delivered()); got != 2 {
		t.Fatalf("multicast delivered %d copies", got)
	}
	if _, err := n.Broadcast(5, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Delivered()); got != 2+9 {
		t.Fatalf("after broadcast delivered %d copies, want 11", got)
	}
}

func TestFacadeTorus(t *testing.T) {
	tr, err := rmb.NewTorus(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 16 {
		t.Errorf("nodes %d", tr.Nodes())
	}
	path, err := tr.Route(0, 15)
	if err != nil || len(path) != tr.Distance(0, 15) {
		t.Errorf("route %v err %v", path, err)
	}
}

func TestFacadeOpenLoop(t *testing.T) {
	n, err := rmb.New(rmb.Config{Nodes: 12, Buses: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rmb.RunOpenLoop(n, rmb.OpenLoopConfig{
		Rate: 0.003, PayloadLen: 2, Warmup: 100, Measure: 1500, Seed: 9,
		Pattern: rmb.UniformDest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("saturated at low load")
	}
	if res.Delivered == 0 || res.Latency.Mean() <= 0 {
		t.Errorf("result %+v", res)
	}
}
