package core

import (
	"testing"
)

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork(%+v): %v", cfg, err)
	}
	return n
}

func TestSingleMessageDelivery(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 8, Buses: 3, Seed: 1, Audit: true})
	payload := []uint64{10, 20, 30}
	id, err := n.Send(0, 5, payload)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got := hist.Delivered()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	m := got[0]
	if m.ID != id || m.Src != 0 || m.Dst != 5 {
		t.Errorf("delivered %+v, want id=%d 0->5", m, id)
	}
	if len(m.Payload) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(m.Payload), len(payload))
	}
	for i, w := range payload {
		if m.Payload[i] != w {
			t.Errorf("payload[%d] = %d, want %d", i, m.Payload[i], w)
		}
	}
	rec, ok := hist.Record(id)
	if !ok || !rec.Done {
		t.Fatalf("record missing or not done: %+v ok=%v", rec, ok)
	}
	if rec.Delivered <= rec.Established || rec.Established <= rec.FirstInserted {
		t.Errorf("timestamps out of order: %+v", rec)
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", rec.Attempts)
	}
}

func TestDeliveryAllDistancesAndPayloads(t *testing.T) {
	for _, nodes := range []int{2, 3, 8, 16} {
		for _, k := range []int{1, 2, 4} {
			for _, plen := range []int{0, 1, 7} {
				n, hist := mustHistory(t, Config{Nodes: nodes, Buses: k, Seed: 7, Audit: true})
				want := 0
				for d := 1; d < nodes; d++ {
					payload := make([]uint64, plen)
					for i := range payload {
						payload[i] = uint64(d*100 + i)
					}
					if _, err := n.Send(0, NodeID(d), payload); err != nil {
						t.Fatalf("Send dist %d: %v", d, err)
					}
					want++
				}
				if err := n.Drain(200_000); err != nil {
					t.Fatalf("N=%d k=%d plen=%d: Drain: %v (stats %v)", nodes, k, plen, err, n.Stats())
				}
				if got := len(hist.Delivered()); got != want {
					t.Errorf("N=%d k=%d plen=%d: delivered %d, want %d", nodes, k, plen, got, want)
				}
			}
		}
	}
}

func TestSendValidation(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 4, Buses: 2})
	cases := []struct {
		src, dst NodeID
	}{{-1, 0}, {0, -1}, {4, 0}, {0, 4}, {2, 2}}
	for _, c := range cases {
		if _, err := n.Send(c.src, c.dst, nil); err == nil {
			t.Errorf("Send(%d,%d) succeeded, want error", c.src, c.dst)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Nodes: 1, Buses: 2}); err == nil {
		t.Error("Nodes=1 accepted")
	}
	if _, err := NewNetwork(Config{Nodes: 4, Buses: 0}); err == nil {
		t.Error("Buses=0 accepted")
	}
	if _, err := NewNetwork(Config{Nodes: 4, Buses: 2, RetryBase: -1}); err == nil {
		t.Error("negative RetryBase accepted")
	}
}

func TestAsyncModeDelivery(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 10, Buses: 3, Mode: Async, Seed: 42, Audit: true})
	for d := 1; d < 10; d++ {
		if _, err := n.Send(0, NodeID(d), []uint64{uint64(d)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := n.Drain(500_000); err != nil {
		t.Fatalf("Drain: %v (stats %v)", err, n.Stats())
	}
	if got := len(hist.Delivered()); got != 9 {
		t.Errorf("delivered %d, want 9", got)
	}
	if err := n.AuditLemma1(); err != nil {
		t.Errorf("Lemma 1: %v", err)
	}
}

func TestManySendersContention(t *testing.T) {
	const N = 16
	n, hist := mustHistory(t, Config{Nodes: N, Buses: 2, Seed: 3, Audit: true})
	want := 0
	for s := 0; s < N; s++ {
		d := (s + N/2) % N
		if _, err := n.Send(NodeID(s), NodeID(d), []uint64{uint64(s)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		want++
	}
	if err := n.Drain(1_000_000); err != nil {
		t.Fatalf("Drain: %v (stats %v)", err, n.Stats())
	}
	if got := len(hist.Delivered()); got != want {
		t.Errorf("delivered %d, want %d", got, want)
	}
	st := n.Stats()
	if st.CompactionMoves == 0 {
		t.Error("expected compaction moves under contention")
	}
}

func TestCompactionSinksIdleCircuit(t *testing.T) {
	// One long-lived circuit should end up on the bottom segment
	// everywhere after compaction has had time to run.
	n := mustNetwork(t, Config{Nodes: 8, Buses: 4, Seed: 1, Audit: true})
	id, err := n.Send(0, 6, make([]uint64, 500))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	_ = id
	for i := 0; i < 60; i++ {
		n.Step()
	}
	vbs := n.ActiveVirtualBuses()
	if len(vbs) != 1 {
		t.Fatalf("active buses = %d, want 1", len(vbs))
	}
	for j, l := range vbs[0].Levels {
		if l != 0 {
			t.Errorf("hop %d still at level %d after compaction, want 0 (levels %v)", j, l, vbs[0].Levels)
		}
	}
}

// mustHistory is mustNetwork with a History attached from the start.
func mustHistory(t *testing.T, cfg Config) (*Network, *History) {
	t.Helper()
	n := mustNetwork(t, cfg)
	return n, NewHistory(n)
}
