package async

import (
	"testing"
	"time"

	"rmb/internal/flit"
)

func TestStatsCountDeliveries(t *testing.T) {
	n, err := New(Config{Nodes: 8, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	demands := []Demand{
		{Src: 0, Dst: 4, Payload: []uint64{1, 2}},
		{Src: 2, Dst: 6, Payload: []uint64{3}},
	}
	if _, err := n.SendAndAwait(demands, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Delivered != 2 {
		t.Errorf("delivered %d, want 2", st.Delivered)
	}
	// Distance-4 routes cross three intermediate INCs each.
	if st.HeadersForwarded < 4 {
		t.Errorf("headers forwarded %d, want at least 4", st.HeadersForwarded)
	}
	// Payload + final flits relayed by intermediates.
	if st.FlitsForwarded == 0 {
		t.Error("no flits forwarded despite multi-hop routes")
	}
}

// TestStatsCountNacksAndRetries sends seven messages to node 0. The
// receive-port hook keeps node 0 busy with the first message until it
// has refused another, so the collision — a Nack, then a retry — is
// certain rather than a matter of goroutine timing.
func TestStatsCountNacksAndRetries(t *testing.T) {
	n, err := New(Config{Nodes: 8, Buses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.holdReceive = func(node int) bool { return node == 0 && n.ctr.nacksSent.Load() == 0 }
	var demands []Demand
	for s := 1; s < 8; s++ {
		demands = append(demands, Demand{Src: flit.NodeID(s), Dst: 0, Payload: []uint64{uint64(s)}})
	}
	if _, err := n.SendAndAwait(demands, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Delivered != 7 {
		t.Errorf("delivered %d", st.Delivered)
	}
	if st.NacksSent == 0 {
		t.Error("seven senders to one receiver produced no Nacks")
	}
	if st.Retries == 0 {
		t.Error("refused messages were never retried")
	}
}
