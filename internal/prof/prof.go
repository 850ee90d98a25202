// Package prof wires the standard pprof profilers behind the
// -cpuprofile / -memprofile flags the CLIs share, so a slow sweep or a
// large-ring run can be profiled without editing code:
//
//	rmbsim -nodes 256 -pattern shift -cpuprofile cpu.out
//	go tool pprof cpu.out
//
// Both paths are optional; Start with two empty paths is a no-op that
// still returns a callable stop.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (if non-empty) and arranges for
// a heap profile to be written to memPath (if non-empty) when the
// returned stop function runs. Callers should `defer stop()` right
// after a successful Start; note that os.Exit skips deferred calls, so
// error paths that exit directly lose the profiles — acceptable for
// these CLIs, where profiling a failing run is not meaningful.
//
// The heap profile is preceded by a runtime.GC so it reflects live
// objects rather than garbage awaiting collection.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("prof: write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
