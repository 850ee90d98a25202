package core

import (
	"reflect"
	"testing"
)

func TestMulticastDeliversToEveryTap(t *testing.T) {
	n, hist := mustHistory(t, Config{Nodes: 12, Buses: 3, Seed: 1, Audit: true})
	payload := []uint64{7, 8}
	id, err := n.SendMulticast(0, []NodeID{3, 6, 9}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatalf("Drain: %v (%v)", err, n.Stats())
	}
	got := hist.Delivered()
	if len(got) != 3 {
		t.Fatalf("delivered %d copies, want 3", len(got))
	}
	want := map[NodeID]bool{3: true, 6: true, 9: true}
	for _, m := range got {
		if m.ID != id || m.Src != 0 {
			t.Errorf("message %+v", m)
		}
		if !want[m.Dst] {
			t.Errorf("unexpected or duplicate destination %d", m.Dst)
		}
		delete(want, m.Dst)
		if len(m.Payload) != 2 || m.Payload[0] != 7 {
			t.Errorf("payload %v", m.Payload)
		}
	}
	if n.Stats().Delivered != 3 {
		t.Errorf("stats delivered %d", n.Stats().Delivered)
	}
	rec, _ := hist.Record(id)
	if rec.Fanout != 3 || rec.Dst != 9 {
		t.Errorf("record %+v", rec)
	}
}

func TestMulticastUnsortedDestinations(t *testing.T) {
	// Destinations given out of order must be tapped in clockwise order.
	n, hist := mustHistory(t, Config{Nodes: 10, Buses: 2, Seed: 2, Audit: true})
	if _, err := n.SendMulticast(4, []NodeID{2, 8, 6}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Delivered()); got != 3 {
		t.Fatalf("delivered %d", got)
	}
	// Final destination is the farthest clockwise: distance(4->2)=8.
	rec := hist.Records()
	for _, r := range rec {
		if r.Dst != 2 || r.Distance != 8 {
			t.Errorf("record %+v, want final dst 2 at distance 8", r)
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 8, Buses: 2})
	if _, err := n.SendMulticast(0, nil, nil); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := n.SendMulticast(0, []NodeID{0}, nil); err == nil {
		t.Error("self destination accepted")
	}
	if _, err := n.SendMulticast(0, []NodeID{3, 3}, nil); err == nil {
		t.Error("duplicate destination accepted")
	}
	if _, err := n.SendMulticast(0, []NodeID{9}, nil); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := n.SendMulticast(-1, []NodeID{2}, nil); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestBroadcastReachesAllNodes(t *testing.T) {
	const N = 8
	n, hist := mustHistory(t, Config{Nodes: N, Buses: 2, Seed: 3, Audit: true})
	if _, err := n.Broadcast(2, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	got := hist.Delivered()
	if len(got) != N-1 {
		t.Fatalf("broadcast delivered %d copies, want %d", len(got), N-1)
	}
	seen := map[NodeID]bool{}
	for _, m := range got {
		seen[m.Dst] = true
	}
	for i := 0; i < N; i++ {
		if i == 2 {
			continue
		}
		if !seen[NodeID(i)] {
			t.Errorf("node %d never received the broadcast", i)
		}
	}
}

func TestMulticastRefusedWhenAnyTapBusy(t *testing.T) {
	// Occupy node 4's receive port with a long unicast; the multicast
	// spanning it must be refused and retried, eventually delivering.
	n := mustNetwork(t, Config{Nodes: 12, Buses: 3, Seed: 5, Audit: true})
	if _, err := n.Send(1, 4, make([]uint64, 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		n.Step()
	}
	if _, err := n.SendMulticast(0, []NodeID{4, 7}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatalf("Drain: %v (%v)", err, n.Stats())
	}
	st := n.Stats()
	if st.Nacks == 0 {
		t.Error("expected a Nack while node 4 was receiving")
	}
	// 1 unicast + 2 multicast taps.
	if st.Delivered != 3 {
		t.Errorf("delivered %d, want 3", st.Delivered)
	}
}

func TestMulticastVersusRepeatedUnicast(t *testing.T) {
	// One circuit serving f destinations clocks the payload once; f
	// sequential unicasts from one send port clock it f times, so the
	// multicast completes sooner.
	const N, f, payload = 16, 4, 32
	dsts := []NodeID{4, 8, 10, 14}

	mc, mcHist := mustHistory(t, Config{Nodes: N, Buses: 3, Seed: 6, Audit: true})
	if _, err := mc.SendMulticast(0, dsts, make([]uint64, payload)); err != nil {
		t.Fatal(err)
	}
	if err := mc.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	mcTicks := mc.Now()

	uc, ucHist := mustHistory(t, Config{Nodes: N, Buses: 3, Seed: 6, Audit: true})
	for _, d := range dsts {
		if _, err := uc.Send(0, d, make([]uint64, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := uc.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	ucTicks := uc.Now()

	if mcTicks >= ucTicks {
		t.Errorf("multicast %d ticks not below repeated unicast %d", mcTicks, ucTicks)
	}
	if got := len(mcHist.Delivered()); got != f {
		t.Errorf("multicast delivered %d", got)
	}
	if got := len(ucHist.Delivered()); got != f {
		t.Errorf("unicasts delivered %d", got)
	}
}

func TestMulticastTapCompactionInteraction(t *testing.T) {
	// A multicast circuit with taps must keep compacting like any other;
	// run under audit with strict checking.
	n := mustNetwork(t, Config{Nodes: 16, Buses: 4, Seed: 7, Audit: true})
	if _, err := n.SendMulticast(0, []NodeID{5, 10, 15}, make([]uint64, 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		n.Step()
	}
	if n.Stats().CompactionMoves == 0 {
		t.Error("multicast circuit never compacted")
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatal(err)
	}
}

// TestMulticastRecycledAfterEveryTap: a multicast's record and payload
// stay in the live window, unfinished and intact, until the final flit
// has reached every tap; the delivery hook then sees it exactly once
// with all of its taps, and only after that is its slot retired.
func TestMulticastRecycledAfterEveryTap(t *testing.T) {
	n := mustNetwork(t, Config{Nodes: 12, Buses: 3, Seed: 1, Audit: true})
	var calls int
	var taps []NodeID
	var words []uint64
	id, err := n.SendMulticast(0, []NodeID{9, 3, 6}, []uint64{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	n.OnDeliver(func(rec MsgRecord, payload []uint64, ts []NodeID) {
		calls++
		if rec.ID != id || !rec.Done || rec.Fanout != 3 {
			t.Errorf("hook saw record %+v", rec)
		}
		// The slot is not retired while the hooks run.
		if r := n.record(id); r == nil || !r.Done {
			t.Errorf("window record %+v during the hook", r)
		}
		taps = append(taps, ts...)
		words = append(words, payload...)
	})
	for calls == 0 {
		r, ok := n.Record(id)
		if !ok || r.Done {
			t.Fatalf("at tick %d, before every tap delivered: record %+v held=%v", n.Now(), r, ok)
		}
		if w := n.payloadOf(id); len(w) != 2 || w[0] != 7 || w[1] != 8 {
			t.Fatalf("at tick %d the payload slot holds %v", n.Now(), w)
		}
		if n.Now() > 10_000 {
			t.Fatal("multicast never delivered")
		}
		n.Step()
	}
	if calls != 1 || !reflect.DeepEqual(taps, []NodeID{3, 6, 9}) || !reflect.DeepEqual(words, []uint64{7, 8}) {
		t.Fatalf("hook ran %d times with taps %v and payload %v, want once with [3 6 9] and [7 8]", calls, taps, words)
	}
	if r := n.record(id); r != nil {
		t.Fatalf("delivered multicast still held: %+v", *r)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times", calls)
	}
}
