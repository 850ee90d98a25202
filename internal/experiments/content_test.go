package experiments

import (
	"strings"
	"testing"
)

// TestArtifactContents spot-checks that each experiment's output carries
// the load-bearing content a reader of the paper would look for — beyond
// the nonempty check of TestAllExperimentsRun and the byte-exact
// docs/artifacts.txt golden.
func TestArtifactContents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	checks := map[string][]string{
		"T1":  {"000", "011", "101", "not allowed"},
		"T2":  {"OD", "ID", "rule 5"},
		"F2":  {"virtual buses", "levels="},
		"F3":  {"frame 0", "frame 1"},
		"F4":  {"make", "->"},
		"F5":  {"even", "odd"},
		"F7":  {"condition 4", "110"},
		"L1":  {"bound: 1"},
		"TH1": {"true"},
		"A1":  {"RMB", "fat tree"},
		"A4":  {"k·B", "bisection"},
		"P1":  {"feasible", "ratio"},
		"P2":  {"peak/k"},
		"C1":  {"competitive ratio", "mean="},
		"C2":  {"area-delay"},
		"C3":  {"k-ary"},
		"C4":  {"bit-reversal", "tornado"},
		"AB1": {"strict-top", "on", "off"},
		"AB2": {"flexible", "straight-only"},
		"AB3": {"unlimited"},
		"DX1": {"two parallel rings", "mean hop distance"},
		"MC1": {"speedup"},
		"GR1": {"grid of rings", "flat ring"},
		"MS1": {"trunk ring"},
		"LT1": {"saturated"},
		"X1":  {"torus"},
		"MB1": {"arbitrated", "RMB (reconfigurable)"},
		"FA1": {"spread", "compaction"},
		"D1":  {"graceful degradation", "failed segments", "accepted"},
	}
	for id, wants := range checks {
		id, wants := id, wants
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			out := artifactOf(t, id)
			for _, w := range wants {
				if !strings.Contains(out, w) {
					t.Errorf("%s artifact missing %q:\n%s", id, w, out)
				}
			}
		})
	}
}

// TestDegradationCurveShape asserts the property the D1 artifact exists
// to demonstrate, without parsing its rendered text: as segments fail,
// accepted throughput never increases, it strictly falls once capacity
// binds, and latency strictly rises across the curve — degradation is
// graceful, not a cliff at the first fault.
func TestDegradationCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full degradation sweep")
	}
	pts, err := DegradationSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("curve has only %d points", len(pts))
	}
	if pts[0].FailedSegments != 0 || pts[0].Saturated {
		t.Fatalf("healthy baseline wrong: %+v", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].FailedSegments <= pts[i-1].FailedSegments {
			t.Fatalf("failed-segment counts not increasing at point %d", i)
		}
		// Monotone non-increasing with a hair of float tolerance.
		if pts[i].Accepted > pts[i-1].Accepted*1.0001 {
			t.Errorf("throughput rose from %.5f to %.5f at %d failed segments",
				pts[i-1].Accepted, pts[i].Accepted, pts[i].FailedSegments)
		}
		if pts[i].MeanLatency <= pts[i-1].MeanLatency {
			t.Errorf("mean latency fell from %.1f to %.1f at %d failed segments",
				pts[i-1].MeanLatency, pts[i].MeanLatency, pts[i].FailedSegments)
		}
	}
	last := pts[len(pts)-1]
	if !(last.Accepted < pts[0].Accepted) {
		t.Errorf("throughput never fell across the curve (%.5f -> %.5f); the load does not bind", pts[0].Accepted, last.Accepted)
	}
	if !last.Saturated {
		t.Error("half the segments failed without saturating; the operating point is too light")
	}
}
