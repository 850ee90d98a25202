package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rmb/internal/core"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(int) (int, error) { return 0, errors.New("never called") })
	if err != nil || got != nil {
		t.Fatalf("Map(_, 0) = %v, %v; want nil, nil", got, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several indices fail; the reported error must be the smallest
	// failing index regardless of which worker hit it first.
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 64, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3 failed", workers, err)
		}
	}
}

func TestMapErrorStillRunsAll(t *testing.T) {
	var ran atomic.Int64
	got, err := Map(4, 32, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d of 32 tasks", ran.Load())
	}
	if got[31] != 31 {
		t.Fatalf("result[31] = %d despite error elsewhere", got[31])
	}
}

func TestMapActuallyConcurrent(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 procs")
	}
	// Two tasks that each block until the other has started can only
	// finish if Map really runs them on distinct goroutines.
	var wg sync.WaitGroup
	wg.Add(2)
	_, err := Map(2, 2, func(i int) (int, error) {
		wg.Done()
		wg.Wait()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d", got)
	}
}

// TestMapSimulationsDeterministic is the integration guarantee the
// package exists for: fanning simulator runs across workers yields
// bit-identical results to the sequential loop.
func TestMapSimulationsDeterministic(t *testing.T) {
	run := func(i int) (core.Stats, error) {
		n, err := core.NewNetwork(core.Config{Nodes: 10, Buses: 2, Seed: uint64(i) + 1})
		if err != nil {
			return core.Stats{}, err
		}
		for s := 0; s < 10; s++ {
			if _, err := n.Send(core.NodeID(s), core.NodeID((s+3)%10), []uint64{1, 2}); err != nil {
				return core.Stats{}, err
			}
		}
		if err := n.Drain(100_000); err != nil {
			return core.Stats{}, err
		}
		return n.Stats(), nil
	}
	seq, err := Map(1, 12, run)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(4, 12, run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("seed %d: sequential %+v != parallel %+v", i, seq[i], par[i])
		}
	}
}

// TestWorkersNormalization pins the -j flag convention shared by every
// consumer (rmbsweep, rmbbench): non-positive means "use the machine", anything else
// passes through untouched — including absurdly large requests, which
// callers clamp against their own work size, not here.
func TestWorkersNormalization(t *testing.T) {
	auto := runtime.GOMAXPROCS(0)
	cases := []struct {
		j, want int
	}{
		{-3, auto},
		{-1, auto},
		{0, auto},
		{1, 1},
		{2, 2},
		{7, 7},
		{1 << 16, 1 << 16},
	}
	for _, tc := range cases {
		if got := Workers(tc.j); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.j, got, tc.want)
		}
	}
}
