package results

import (
	"bytes"
	"strings"
	"testing"

	"rmb/internal/core"
)

func drainedNetwork(t *testing.T) (*core.Network, *core.History) {
	t.Helper()
	n, err := core.NewNetwork(core.Config{Nodes: 8, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := core.NewHistory(n)
	if _, err := n.Send(0, 5, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(3, 7, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	return n, hist
}

func TestRoundTrip(t *testing.T) {
	n, hist := drainedNetwork(t)
	r := FromNetwork(n, hist, "two-sends", true)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != FormatVersion || got.Workload != "two-sends" {
		t.Errorf("header %+v", got)
	}
	if got.Totals.Delivered != 2 || got.Totals.MessagesSubmitted != 2 {
		t.Errorf("totals %+v", got.Totals)
	}
	if len(got.Messages) != 2 {
		t.Fatalf("messages %d", len(got.Messages))
	}
	if got.Messages[0].ID >= got.Messages[1].ID {
		t.Error("messages not sorted by id")
	}
	for _, m := range got.Messages {
		if !m.Done || m.Delivered <= m.Enqueued {
			t.Errorf("message %+v", m)
		}
	}
	if got.Snapshot == nil || got.Snapshot.Nodes != 8 || got.Snapshot.Buses != 2 {
		t.Errorf("snapshot %+v", got.Snapshot)
	}
	if len(got.Snapshot.Status) != 8 || got.Snapshot.Status[0][0] == "" {
		t.Errorf("snapshot status %+v", got.Snapshot.Status)
	}
}

func TestOptionalSections(t *testing.T) {
	n, _ := drainedNetwork(t)
	r := FromNetwork(n, nil, "lean", false)
	if r.Messages != nil || r.Snapshot != nil {
		t.Error("optional sections present")
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"messages\"") || strings.Contains(buf.String(), "\"snapshot\"") {
		t.Errorf("omitempty not applied:\n%s", buf.String())
	}
}

func TestVersionRejection(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestConfigEcho(t *testing.T) {
	n, err := core.NewNetwork(core.Config{
		Nodes: 6, Buses: 3, Seed: 9, Mode: core.Async,
		HeadRule: core.HeadStrictTop, DackWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := FromNetwork(n, nil, "", false)
	if r.Config.Mode != "async" || r.Config.HeadRule != "strict-top" {
		t.Errorf("config %+v", r.Config)
	}
	if r.Config.DackWindow != 4 || r.Config.MaxSendPerNode != 1 {
		t.Errorf("defaults not echoed: %+v", r.Config)
	}
	if r.Config.HeadTimeout != 24 { // 4 x Nodes default
		t.Errorf("head timeout %d, want 24", r.Config.HeadTimeout)
	}
}
