package clitest

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRmbvetCleanRepo runs the analyzer suite over this repository: the
// binary must exit 0 and report the package and analyzer counts.
func TestRmbvetCleanRepo(t *testing.T) {
	out, err := run(t, "rmbvet", "./...")
	if err != nil {
		t.Fatalf("rmbvet found violations in the repo:\n%s", out)
	}
	if !strings.Contains(out, "rmbvet: ok") {
		t.Errorf("missing ok banner:\n%s", out)
	}
}

// TestBenchModuleVets compiles the benchmark module (rmb/bench) and its
// tests against this tree with `go vet`. bench/ is a module of its own,
// so `go build ./...` here never builds it: without this check a changed
// signature of any symbol the benchmark imports would surface only when
// the benchmark runs.
func TestBenchModuleVets(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "vet", "-C", filepath.Join(repoRoot, "bench"), "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet of the bench module failed: %v\n%s", err, out)
	}
}

// TestRmbvetList checks the analyzer inventory exposed by -list.
func TestRmbvetList(t *testing.T) {
	out, err := run(t, "rmbvet", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, name := range []string{
		"determinism", "isolation", "exhaustive", "inc-ownership",
		"atomic-discipline", "unbounded-send",
		"stats-exhaustive", "hotpath-alloc", "waiver-audit",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing analyzer %q:\n%s", name, out)
		}
	}
	if strings.Contains(out, "shard-commit") {
		t.Errorf("-list still names the retired shard-commit analyzer:\n%s", out)
	}
}

// TestRmbvetJSON checks the -json schema end to end: a clean repo emits
// an empty array, and the seeded fixture emits root-relative
// {file, line, col, analyzer, message} objects matching the golden file.
func TestRmbvetJSON(t *testing.T) {
	out, err := run(t, "rmbvet", "-json", "./...")
	if err != nil {
		t.Fatalf("rmbvet -json found violations in the repo:\n%s", out)
	}
	var clean []map[string]any
	if err := decodeFindings(out, &clean); err != nil {
		t.Fatalf("clean -json output is not a JSON array: %v\n%s", err, out)
	}
	if len(clean) != 0 {
		t.Errorf("clean repo emitted %d findings", len(clean))
	}

	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fixtureRoot := filepath.Join(repoRoot, "internal", "lint", "testdata", "src")
	out, err = run(t, "rmbvet", "-json", "-root", fixtureRoot, "-module", "fixture", "./...")
	if err == nil {
		t.Fatalf("rmbvet exited 0 on the seeded fixture:\n%s", out)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := decodeFindings(out, &findings); err != nil {
		t.Fatalf("fixture -json output did not decode: %v\n%s", err, out)
	}
	golden, err := os.ReadFile(filepath.Join(repoRoot, "internal", "lint", "testdata", "fixture.golden"))
	if err != nil {
		t.Fatal(err)
	}
	goldenLines := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(findings) != len(goldenLines) {
		t.Fatalf("-json emitted %d findings, golden has %d", len(findings), len(goldenLines))
	}
	for i, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding %d has empty schema fields: %+v", i, f)
			continue
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding %d file is absolute, want root-relative: %s", i, f.File)
		}
		rendered := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		if rendered != goldenLines[i] {
			t.Errorf("finding %d diverges from golden:\n got %s\nwant %s", i, rendered, goldenLines[i])
		}
	}
}

// decodeFindings parses the first JSON array in out into v, tolerating
// the stderr summary banner before or after it (run merges the streams).
func decodeFindings(out string, v any) error {
	s := out
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[i:]
	}
	return json.NewDecoder(strings.NewReader(s)).Decode(v)
}

// TestRmbvetFixtureGolden runs the built binary against the seeded
// fixture module and compares its findings, line for line, with the lint
// package's golden file — the CLI and the library must agree exactly.
func TestRmbvetFixtureGolden(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fixtureRoot := filepath.Join(repoRoot, "internal", "lint", "testdata", "src")
	out, err := run(t, "rmbvet", "-root", fixtureRoot, "-module", "fixture", "./...")
	if err == nil {
		t.Fatalf("rmbvet exited 0 on the seeded fixture:\n%s", out)
	}

	golden, err := os.ReadFile(filepath.Join(repoRoot, "internal", "lint", "testdata", "fixture.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var findings []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "rmbvet:") {
			continue // summary banner on stderr
		}
		findings = append(findings, line)
	}
	got := strings.Join(findings, "\n") + "\n"
	if got != string(golden) {
		t.Errorf("binary findings diverge from golden file.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	wantCount := len(strings.Split(strings.TrimSpace(string(golden)), "\n"))
	if !strings.Contains(out, fmt.Sprintf("rmbvet: %d finding(s)", wantCount)) {
		t.Errorf("summary banner missing or wrong (want %d findings):\n%s", wantCount, out)
	}
}

// TestRmbvetUnknownPattern: a typo'd package pattern must be a usage
// error (exit 2), never a silently clean run.
func TestRmbvetUnknownPattern(t *testing.T) {
	out, err := run(t, "rmbvet", "./internal/nosuchpkg")
	if err == nil {
		t.Fatalf("rmbvet exited 0 on an unknown pattern:\n%s", out)
	}
	if strings.Contains(out, "rmbvet: ok") {
		t.Errorf("unknown pattern reported a clean run:\n%s", out)
	}
	if !strings.Contains(out, "matches no packages") {
		t.Errorf("error does not name the unmatched pattern:\n%s", out)
	}
}

// TestRmbvetPackageFilter restricts reporting to one fixture package.
func TestRmbvetPackageFilter(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fixtureRoot := filepath.Join(repoRoot, "internal", "lint", "testdata", "src")
	out, err := run(t, "rmbvet", "-root", fixtureRoot, "-module", "fixture", "./internal/async")
	if err == nil {
		t.Fatalf("rmbvet exited 0 on the seeded async fixture:\n%s", out)
	}
	if strings.Contains(out, "internal/core/core.go") {
		t.Errorf("filter leaked core findings:\n%s", out)
	}
	for _, want := range []string{"inc-ownership", "unbounded-send"} {
		if !strings.Contains(out, want) {
			t.Errorf("filtered run missing %q:\n%s", want, out)
		}
	}
}
