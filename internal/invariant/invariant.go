// Package invariant is the build-tag-gated runtime harness for the
// paper-level properties the simulator must hold every tick: segment
// occupancy agreeing with virtual-bus levels, message conservation
// across submit/deliver/nack/fault-teardown, retry-wheel boundedness,
// and faulty-segment unclaimability (DESIGN.md §12 maps each property
// to its paper claim).
//
// The harness costs nothing unless the build carries the `invariants`
// tag: Enabled is a compile-time constant, and internal/core's
// checkTickInvariants compiles to an empty, inlined-away method in the
// default build — BENCH_baseline.json deltas prove the no-op (CI's
// bench smoke asserts it). With `-tags invariants`, every Step of every
// scheduler (naive, event) runs the full assertion set, so the 32-seed
// scheduler differential tests double as invariant soaks.
//
// Violations are reported by panicking with a *Violation: an invariant
// breach means simulator state is corrupt and no later result can be
// trusted, exactly like the cfg.Audit hook it complements. Audit is an
// opt-in Config field checked in release builds; this harness is a
// build-time switch intended for test and CI tiers.
package invariant

import "fmt"

// Violation describes one broken runtime invariant.
type Violation struct {
	// Name identifies the invariant (e.g. "occupancy-levels",
	// "conservation", "retry-bounded", "faulty-unclaimable").
	Name string
	// Tick is the simulation tick the check ran at.
	Tick int64
	// Detail is the human-readable account of the breach.
	Detail string
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at tick %d: %s", v.Name, v.Tick, v.Detail)
}

// Violatef builds a *Violation with a formatted detail string.
func Violatef(name string, tick int64, format string, args ...any) *Violation {
	return &Violation{Name: name, Tick: tick, Detail: fmt.Sprintf(format, args...)}
}
