package core_test

import (
	"runtime"
	"testing"

	"rmb/internal/core"
	"rmb/internal/loadgen"
)

// TestRetainedStateBound runs rmbd's ckpt-resume job shape — a 256×4
// ring, neighbour traffic at rate 0.05 with 16-word payloads, a 16 000
// tick measurement window and as long a drain — and requires what the
// network keeps afterwards to be bounded by the live ring, not by the
// 200 000-odd messages the run sent: a window of at most 16 384 ID
// slots, records and payload buffers for the messages unfinished at
// once, and under 5 MB of live heap after a GC.
func TestRetainedStateBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	n, err := core.NewNetwork(core.Config{Nodes: 256, Buses: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(n, loadgen.Config{
		Rate: 0.05, PayloadLen: 16, Measure: 16_000, Drain: 16_000,
		Pattern: loadgen.NeighbourDest, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := n.Stats().MessagesSubmitted
	if sent < 200_000 || res.Delivered != res.Submitted {
		t.Fatalf("run sent %d messages and delivered %d of %d; the bound would be vacuous", sent, res.Delivered, res.Submitted)
	}
	res = loadgen.Result{} // the latency sample is the caller's, not the network's

	// The window spans at most 16 384 IDs at four bytes each. Records and
	// payload buffers are recycled as messages finish, so they follow the
	// unfinished set (under 3 000 messages here), not the window's span.
	const maxSlots, maxLive = 16_384, 4096
	slots, records, words := core.WindowStorage(n)
	if slots > maxSlots {
		t.Errorf("message window grew to %d slots for %d messages sent, want at most %d", slots, sent, maxSlots)
	}
	if records > maxLive {
		t.Errorf("record pool grew to %d entries, want at most %d", records, maxLive)
	}
	if maxWords := 16*maxLive + 16_384; words > maxWords {
		t.Errorf("payload storage holds %d words, want at most %d (%d 16-word buffers plus one carve chunk)", words, maxWords, maxLive)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(n)
	if live > 5<<20 {
		t.Errorf("network retains %.1f MB of live heap after the run, want under 5 MB", float64(live)/(1<<20))
	}
	t.Logf("%d messages sent; %d window slots, %d records, %d payload words, %.2f MB live", sent, slots, records, words, float64(live)/(1<<20))
}
