// Package lint is rmbvet's analyzer suite: domain-aware static analysis
// that enforces, at compile time, the RMB protocol invariants the paper's
// correctness argument rests on. The runtime auditor (internal/core's
// Audit) checks simulation *state*; these analyzers check the *code* that
// manipulates it:
//
//   - determinism: the cycle-accurate tier (internal/core, internal/sim,
//     internal/flit) must stay bit-reproducible — no wall-clock reads, no
//     ambient math/rand, no map-order iteration over protocol state.
//   - isolation: the same tier must not import observability or I/O
//     machinery (net, net/http, expvar, pprof, time, internal/telemetry);
//     telemetry observes through Recorder callbacks and snapshot pulls,
//     preserving the zero-observer-effect guarantee.
//   - exhaustive: every switch over a protocol enum (flit.Kind, flit.Ack,
//     the Table 1 / Table 2 / FSM enums) covers all variants or handles
//     the remainder explicitly, so adding a variant cannot silently skip
//     a protocol rule.
//   - inc-ownership: all state of a run-loop-owned struct (async.inc) is
//     touched only by its own methods, preserving the "all state owned by
//     the run loop" serialization discipline.
//   - atomic-discipline: structs holding sync/atomic counters are never
//     copied or passed by value.
//   - unbounded-send: channel sends in the async tier must be select
//     comm-clauses (shutdown-guarded), preventing the deadlock class that
//     inbox buffering would otherwise hide.
//   - stats-exhaustive: every core.Stats field must survive (Stats).Merge
//     and be surfaced in both the results JSON totals and the rmbsweep
//     aggregate table, so adding a counter cannot silently fall out of
//     any reporting surface.
//   - hotpath-alloc: functions reachable from a Step method in
//     internal/core must not allocate per tick (make/new, slice/map
//     literals, escaping composites and closures, non-amortizing append).
//   - structured-log: the serving tier (internal/service) logs only
//     through its configured *slog.Logger — no process-global log.Printf,
//     no fmt stdout printing — so the daemon's structured log stream stays
//     parseable and a logger-less embedding stays silent.
//   - waiver-audit: every rmbvet:allow directive must name a known
//     analyzer, carry a reason of at least two words, and still suppress
//     a live finding; stale waivers are findings themselves.
//
// The suite is pure standard library (go/ast, go/parser, go/types plus a
// small module loader in load.go) so it runs in hermetic environments.
// Waivers are explicit and audited: a "//rmbvet:allow <analyzer> <reason>"
// comment on (or immediately above) the offending line suppresses one
// finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Message describes the violation and how to fix it.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over every package of a module.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// rmbvet:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and which paper invariant it guards.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(m *Module, pkg *Package) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism(),
		analyzerIsolation(),
		analyzerExhaustive(),
		analyzerIncOwnership(),
		analyzerAtomicDiscipline(),
		analyzerUnboundedSend(),
		analyzerStatsExhaustive(),
		analyzerHotpathAlloc(),
		analyzerStructuredLog(),
		// waiver-audit re-runs the suite with waivers ignored, so it goes
		// last and is the one analyzer whose findings cannot be waived.
		analyzerWaiverAudit(),
	}
}

// Run applies every analyzer to every package of the module and returns
// the findings sorted by position. Findings waived by an rmbvet:allow
// directive are dropped here, so analyzers need not check directives
// themselves.
func Run(m *Module) []Diagnostic {
	return RunAnalyzers(m, Analyzers())
}

// RunAnalyzers applies the given analyzers to every package of the module.
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range m.Pkgs {
			out = append(out, a.Run(m, pkg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// diag builds a Diagnostic at pos unless a directive waives it; it
// returns the finding and whether it should be reported. When the
// module's ignoreWaivers flag is set (the waiver-audit analyzer probing
// for the raw findings a directive must still cover), waivers are not
// consulted.
func diag(m *Module, pkg *Package, name string, pos token.Pos, format string, args ...any) (Diagnostic, bool) {
	if !m.ignoreWaivers && pkg.Allowed(m.Fset, pos, name) {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos:      m.Fset.Position(pos),
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	}, true
}

// inTier reports whether the package import path sits in one of the
// named tiers. A tier is matched as a whole path suffix on a package
// boundary, so "internal/core" matches both "rmb/internal/core" and a
// fixture module's "fixture/internal/core".
func inTier(pkgPath string, tiers ...string) bool {
	for _, t := range tiers {
		if pkgPath == t || strings.HasSuffix(pkgPath, "/"+t) {
			return true
		}
	}
	return false
}

// enclosingFuncs pairs every node with the function declaration it
// appears in by walking each file once.
type funcVisitor struct {
	fn    *ast.FuncDecl
	visit func(fn *ast.FuncDecl, n ast.Node) bool
}

func (v *funcVisitor) Visit(n ast.Node) ast.Visitor {
	if fd, ok := n.(*ast.FuncDecl); ok {
		return &funcVisitor{fn: fd, visit: v.visit}
	}
	if n != nil && !v.visit(v.fn, n) {
		return nil
	}
	return v
}

// walkFuncs walks every node of the file, handing the visitor the
// innermost enclosing function declaration (nil at file scope). The
// callback returns false to prune the subtree.
func walkFuncs(file *ast.File, visit func(fn *ast.FuncDecl, n ast.Node) bool) {
	ast.Walk(&funcVisitor{visit: visit}, file)
}

// namedOf unwraps pointers and aliases down to the defined type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// recvNamed resolves a method receiver's defined type, or nil for plain
// functions.
func recvNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return namedOf(tv.Type)
}
