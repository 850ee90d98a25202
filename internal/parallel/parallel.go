// Package parallel fans independent simulation runs across worker
// goroutines with deterministic, index-ordered result collection.
//
// Two packages in this repository may spawn goroutines around simulator
// state: this one (whole independent runs) and internal/service (the
// rmbd job pool, where each worker goroutine owns one network outright
// for the lifetime of its job).
// This package preserves determinism by construction: each task index is
// executed by exactly one worker, every task owns its inputs (its own
// core.Network, RNG, workload) exclusively, and results land in a slice
// slot reserved for their index — so the output of Map is byte-identical
// to a sequential loop regardless of worker count or OS scheduling.
// Nothing here may be imported by internal/core, internal/sim or
// internal/flit (rmbvet enforces the inverse: those tiers cannot use the
// go statement).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count flag: values <= 0 select GOMAXPROCS
// (the common "-j 0 = use the machine" convention).
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Map runs fn(i) for every i in [0, n) across up to `workers` goroutines
// and returns the results in index order. fn must be safe to call
// concurrently with different arguments and must not share mutable state
// between indices (hand each index its own simulator and RNG).
//
// Every index is attempted even if an earlier one fails; the returned
// error is the error of the smallest failing index, so the (results,
// error) pair is independent of scheduling. With workers <= 1 (or n <= 1)
// Map degenerates to a plain sequential loop on the calling goroutine.
func Map[R any](workers, n int, fn func(int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]R, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
