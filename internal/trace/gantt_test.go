package trace

import (
	"strings"
	"testing"

	"rmb/internal/core"
	"rmb/internal/flit"
)

func TestGanttRendersLifecycles(t *testing.T) {
	n, err := core.NewNetwork(core.Config{Nodes: 10, Buses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := core.NewHistory(n)
	if _, err := n.Send(0, 6, make([]uint64, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(2, 8, make([]uint64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	out := Gantt{}.Render(hist.Records())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 messages
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "f") {
			t.Errorf("row without delivery marker: %q", l)
		}
		if !strings.Contains(l, "=") {
			t.Errorf("row without transfer span: %q", l)
		}
	}
	if !strings.HasPrefix(lines[1], "m1") || !strings.HasPrefix(lines[2], "m2") {
		t.Errorf("rows not ordered by message id:\n%s", out)
	}
}

func TestGanttScalesToWidth(t *testing.T) {
	n, err := core.NewNetwork(core.Config{Nodes: 16, Buses: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hist := core.NewHistory(n)
	if _, err := n.Send(0, 15, make([]uint64, 200)); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	out := Gantt{Width: 20}.Render(hist.Records())
	for _, l := range strings.Split(out, "\n") {
		if i := strings.Index(l, "|"); i >= 0 {
			j := strings.LastIndex(l, "|")
			if j-i-1 != 20 {
				t.Errorf("timeline width %d, want 20: %q", j-i-1, l)
			}
		}
	}
}

func TestGanttShowsRetries(t *testing.T) {
	n, err := core.NewNetwork(core.Config{Nodes: 8, Buses: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hist := core.NewHistory(n)
	// Two senders to one receiver force a Nack and retry.
	if _, err := n.Send(1, 0, make([]uint64, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(4, 0, make([]uint64, 60)); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(200_000); err != nil {
		t.Fatal(err)
	}
	out := Gantt{}.Render(hist.Records())
	if !strings.Contains(out, "attempts") {
		t.Errorf("retry annotation missing:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	out := Gantt{}.Render(map[flit.MessageID]core.MsgRecord{})
	if !strings.Contains(out, "no finished messages") {
		t.Errorf("empty render: %q", out)
	}
}
