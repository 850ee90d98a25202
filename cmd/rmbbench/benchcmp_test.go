package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline writes a minimal BENCH_baseline.json-shaped file with
// one section carrying repeated runs, mirroring -count=3 output.
func writeBaseline(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "baseline.json")
	const body = `{
  "comment": "test fixture",
  "event": {
    "runs": [
      { "name": "LargeRingShift", "iterations": 100, "metrics": { "ns/op": 500000 } },
      { "name": "LargeRingShift", "iterations": 100, "metrics": { "ns/op": 400000 } },
      { "name": "LargeRingShift", "iterations": 100, "metrics": { "ns/op": 450000 } },
      { "name": "SendDrainSmall", "iterations": 1000, "metrics": { "ns/op": 20000 } }
    ]
  }
}`
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBenchCmpWithinTolerance(t *testing.T) {
	in := `goos: linux
BenchmarkLargeRingShift-8   100   650000 ns/op
BenchmarkLargeRingShift-8   100   420000 ns/op
BenchmarkSendDrainSmall-8   1000  30000 ns/op
BenchmarkBrandNew-8         10    99 ns/op
PASS
`
	var out strings.Builder
	regressions, err := benchCmp(writeBaseline(t), "event", 2, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", regressions, out.String())
	}
	// The best of the repeated runs (420000) is the comparison point, a
	// benchmark absent from the baseline is skipped without failing, and
	// the summary counts only the compared pairs.
	for _, want := range []string{
		"LargeRingShift", "420000", "not in baseline, skipped",
		"benchcmp: 2 compared against \"event\", 0 regression(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBenchCmpFlagsRegression(t *testing.T) {
	in := `BenchmarkLargeRingShift-8   100   900000 ns/op
BenchmarkSendDrainSmall-8   1000  21000 ns/op
`
	var out strings.Builder
	regressions, err := benchCmp(writeBaseline(t), "event", 2, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	// 900000 > 400000*2 regresses; 21000 <= 20000*2 does not.
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output missing REGRESSION verdict:\n%s", out.String())
	}
}

func TestBenchCmpErrors(t *testing.T) {
	base := writeBaseline(t)
	in := "BenchmarkLargeRingShift-8   100   1 ns/op\n"

	if _, err := benchCmp(base, "nosuch", 2, strings.NewReader(in), &strings.Builder{}); err == nil {
		t.Error("unknown section did not error")
	} else if !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "event") {
		t.Errorf("unknown-section error does not name the section and the candidates: %v", err)
	}

	if _, err := benchCmp(base, "event", 0, strings.NewReader(in), &strings.Builder{}); err == nil {
		t.Error("zero tolerance did not error")
	}

	disjoint := "BenchmarkUnrelated-8   100   1 ns/op\n"
	if _, err := benchCmp(base, "event", 2, strings.NewReader(disjoint), &strings.Builder{}); err == nil {
		t.Error("disjoint benchmark sets did not error")
	}
}

// writeServiceBaseline mimics a BENCH_baseline.json service section
// with a rate metric (jobs/sec, higher-better) and allocs/op
// (lower-better) alongside ns/op.
func writeServiceBaseline(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "baseline.json")
	const body = `{
  "service": {
    "runs": [
      { "name": "ServiceThroughput/pooled", "iterations": 50,
        "metrics": { "ns/op": 2000000, "jobs/sec": 500, "allocs/op": 1200 } },
      { "name": "ServiceThroughput/pooled", "iterations": 50,
        "metrics": { "ns/op": 2400000, "jobs/sec": 410, "allocs/op": 1250 } }
    ]
  }
}`
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBenchCmpCustomMetricsOK: healthy numbers across all three metric
// directions pass, the best-over-count reduction picks min for ns/op
// and allocs/op but max for jobs/sec, and every shared metric counts as
// a comparison.
func TestBenchCmpCustomMetricsOK(t *testing.T) {
	in := `BenchmarkServiceThroughput/pooled-8  50  2100000 ns/op  480 jobs/sec  1100 allocs/op
BenchmarkServiceThroughput/pooled-8  50  2600000 ns/op  390 jobs/sec  1300 allocs/op
BenchmarkServiceThroughput/pooled-8  50  1 extra/op
`
	var out strings.Builder
	regressions, err := benchCmp(writeServiceBaseline(t), "service", 2, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", regressions, out.String())
	}
	for _, want := range []string{
		"jobs/sec", "480.00", // max over count, not min
		"allocs/op", "1100.00", // min over count
		"metric not in baseline, skipped", // extra/op rides along unharmed
		`benchcmp: 3 compared against "service", 0 regression(s)`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestBenchCmpRateRegression: a jobs/sec collapse is a regression even
// though the number merely got smaller — direction-aware gating.
func TestBenchCmpRateRegression(t *testing.T) {
	in := "BenchmarkServiceThroughput/pooled-8  50  2100000 ns/op  100 jobs/sec  1100 allocs/op\n"
	var out strings.Builder
	regressions, err := benchCmp(writeServiceBaseline(t), "service", 2, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	// 100 < 500/2 regresses; ns/op and allocs/op are fine.
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (< base/2)") {
		t.Errorf("output missing rate-regression verdict:\n%s", out.String())
	}
}

// TestBenchCmpAllocRegression: an allocs/op explosion is caught by the
// same gate that watches ns/op.
func TestBenchCmpAllocRegression(t *testing.T) {
	in := "BenchmarkServiceThroughput/pooled-8  50  2100000 ns/op  480 jobs/sec  9000 allocs/op\n"
	var out strings.Builder
	regressions, err := benchCmp(writeServiceBaseline(t), "service", 2, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (> 2x)") {
		t.Errorf("output missing alloc-regression verdict:\n%s", out.String())
	}
}

// TestBenchCmpAgainstRepoBaseline pins the tool to the real
// BENCH_baseline.json layout: the committed file must stay parseable and
// its event section must still carry the smoke benchmark CI compares.
func TestBenchCmpAgainstRepoBaseline(t *testing.T) {
	in := "BenchmarkLargeRingShift-8   100   500000 ns/op\n"
	var out strings.Builder
	regressions, err := benchCmp(filepath.Join("..", "..", "BENCH_baseline.json"), "event", 1e9, strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("unexpected regression against the huge tolerance:\n%s", out.String())
	}
}
