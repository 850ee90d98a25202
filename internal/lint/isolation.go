package lint

import (
	"strconv"
	"strings"
)

// isolationBannedImports maps import paths (or path prefixes, marked
// with a trailing "/...") forbidden in the strict deterministic tiers
// to the reason. The telemetry subsystem observes the simulator through
// core.Recorder callbacks and immutable Snapshots pulled between ticks;
// the moment the core imports an observability package the isolation
// inverts and wall-clock concerns (HTTP handlers, scrape timing,
// profiling) can leak into tick execution.
var isolationBannedImports = []struct {
	path, why string
	prefix    bool
}{
	{"net/http", "HTTP belongs in the observer (internal/telemetry) fed by snapshot pulls, never in the simulator", true},
	{"net", "sockets tie tick execution to the outside world; expose state via Snapshot and serve it from internal/telemetry", true},
	{"expvar", "expvar registers process-global wall-clock-scraped state; publish Snapshot/Stats through internal/telemetry instead", false},
	{"runtime/pprof", "profiling endpoints belong in the observer or cmd tiers, not the simulator", false},
	{"runtime/trace", "execution tracing belongs in the observer or cmd tiers, not the simulator", false},
	{"os/signal", "signal handling is a process concern for cmd tiers; the simulator must stay a pure library", false},
	{"time", "the simulator advances by logical sim.Tick only; wall-clock types in core state would make traces timing-dependent", false},
	{"internal/telemetry", "the core must not know its observers: telemetry watches through core.Recorder and Snapshot, the reverse import would let observation perturb the simulation", true},
}

// isolationMatch reports the ban entry covering path, if any.
func isolationMatch(path string) (string, bool) {
	for _, b := range isolationBannedImports {
		if path == b.path ||
			(b.prefix && strings.HasPrefix(path, b.path+"/")) ||
			(b.prefix && strings.HasSuffix(path, "/"+b.path)) {
			return b.why, true
		}
	}
	return "", false
}

func analyzerIsolation() *Analyzer {
	a := &Analyzer{
		Name: "isolation",
		Doc: "The strict deterministic tiers (internal/core, internal/sim, " +
			"internal/flit) must not import observability or I/O machinery: " +
			"net, net/http, expvar, runtime/pprof, runtime/trace, " +
			"os/signal, time, or internal/telemetry. Telemetry attaches from the " +
			"outside — core.Recorder callbacks plus immutable Snapshots pulled " +
			"between ticks — which is what makes the zero-observer-effect " +
			"guarantee (attaching the live HTTP observer leaves every " +
			"scheduler's trace byte-identical) checkable rather than hoped-for. " +
			"Guards the differential tests' premise that observation never " +
			"perturbs the simulation.",
	}
	a.Run = func(m *Module, pkg *Package) []Diagnostic {
		if !inTier(pkg.Path, strictDeterministicTiers...) {
			return nil
		}
		var out []Diagnostic
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if why, bad := isolationMatch(path); bad {
					if d, ok := diag(m, pkg, a.Name, imp.Pos(), "deterministic tier imports %s; %s", path, why); ok {
						out = append(out, d)
					}
				}
			}
		}
		return out
	}
	return a
}
