package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Tier membership for the determinism analyzer. The strict tier is the
// cycle-accurate simulator: identical configuration and seed must yield
// identical traces, which is what makes the paper's Table/Figure
// reproductions and the conformance tests meaningful. It holds no
// goroutines at all. The async tier may pace itself with timers, but must
// never read the wall clock into protocol state (held headers, retry
// bookkeeping), because expiry decisions must be expressible in logical
// ticks to be testable.
//
// Concurrency above the simulator lives outside these tiers, on the far
// side of the Recorder/Snapshot seam: internal/parallel fans whole
// independent runs across workers, and internal/service multiplexes
// simulation jobs over a worker pool where each job owns its network
// outright. Neither is imported by the strict tier, so their goroutines
// cannot perturb a run's trace — which is exactly why they need no
// waivers and stay out of the tier lists above.
var (
	strictDeterministicTiers = []string{"internal/core", "internal/sim", "internal/flit"}
	clockFreeTiers           = []string{"internal/async"}
)

// wallClockFuncs read the wall clock; banned in both tiers.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// timerFuncs introduce real-time pacing; banned in the strict tier only.
var timerFuncs = map[string]bool{
	"NewTimer": true, "NewTicker": true, "After": true,
	"AfterFunc": true, "Tick": true, "Sleep": true,
}

// bannedImports are ambient randomness sources; the simulator must use
// the seedable, snapshot-able sim.RNG instead.
var bannedImports = map[string]string{
	"math/rand":    "use the seeded sim.RNG instead of ambient math/rand",
	"math/rand/v2": "use the seeded sim.RNG instead of ambient math/rand/v2",
}

func analyzerDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc: "The cycle-accurate tier (internal/core, internal/sim, internal/flit) " +
			"must be bit-reproducible for a given Config and Seed: no wall-clock reads " +
			"(time.Now/Since/Until), no timers, no math/rand, no goroutines (the OS " +
			"scheduler is a nondeterminism source; fan independent simulations out via " +
			"internal/parallel instead), and no iteration over protocol-state maps (Go " +
			"randomizes map order). Above the Recorder/Snapshot seam, internal/parallel " +
			"(independent runs) and internal/service (job workers, one network per " +
			"goroutine) may spawn freely because the tier never imports them. " +
			"The async tier additionally must not read the wall clock into protocol " +
			"state. Guards the paper's deterministic replay of Tables 1-2 and " +
			"Figures 5-13.",
	}
	a.Run = func(m *Module, pkg *Package) []Diagnostic {
		strict := inTier(pkg.Path, strictDeterministicTiers...)
		clockFree := strict || inTier(pkg.Path, clockFreeTiers...)
		if !clockFree {
			return nil
		}
		var out []Diagnostic
		report := func(pos ast.Node, format string, args ...any) {
			if d, ok := diag(m, pkg, a.Name, pos.Pos(), format, args...); ok {
				out = append(out, d)
			}
		}
		for _, file := range pkg.Files {
			if strict {
				for _, imp := range file.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						continue
					}
					if why, bad := bannedImports[path]; bad {
						report(imp, "deterministic tier imports %s; %s", path, why)
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					sel, ok := node.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
						return true
					}
					switch {
					case strict && wallClockFuncs[fn.Name()]:
						report(node, "wall-clock read time.%s in deterministic tier; derive timing from logical ticks", fn.Name())
					case wallClockFuncs[fn.Name()]:
						report(node, "wall-clock read time.%s leaks real time into async protocol state; count logical ticks instead", fn.Name())
					case strict && timerFuncs[fn.Name()]:
						report(node, "real-time pacing time.%s in deterministic tier; advance the sim.Clock instead", fn.Name())
					}
				case *ast.GoStmt:
					if strict {
						report(node, "go statement in deterministic tier: goroutine interleaving is OS-scheduled "+
							"and would break bit-reproducibility; keep simulator state single-threaded and fan "+
							"independent runs out with internal/parallel")
					}
				case *ast.RangeStmt:
					if !strict {
						return true
					}
					tv, ok := pkg.Info.Types[node.X]
					if !ok {
						return true
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						report(node, "map iteration order is randomized; iterate a sorted key slice, or waive with "+
							"//rmbvet:allow determinism <why order cannot matter>")
					}
				}
				return true
			})
		}
		return out
	}
	return a
}
