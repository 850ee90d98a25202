package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if ids[e.ID] {
				t.Fatalf("duplicate experiment id %q", e.ID)
			}
			ids[e.ID] = true
			out, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if strings.TrimSpace(out) == "" {
				t.Fatalf("%s produced empty output", e.ID)
			}
		})
	}
	if len(ids) != 38 {
		t.Errorf("%d experiments, want 38 (2 tables + 11 figures + L1 + TH1 + 4 analysis + P1 P2 + C1 C2 + 3 ablations + 12 extensions)", len(ids))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("T1"); !ok {
		t.Error("T1 not found")
	}
	if _, ok := ByID("f7"); !ok {
		t.Error("lookup not case-insensitive")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestTable1ArtifactShape(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"000", "111", "not allowed", "port receives from below and straight"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 artifact missing %q:\n%s", want, out)
		}
	}
}

func TestTheorem1AllComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	out, err := Theorem1()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "false") {
		t.Errorf("Theorem 1 table reports incomplete routing:\n%s", out)
	}
}

// TestCompetitiveRatioBounded bounds C1's measured competitiveness. C1
// routes six random permutations on an N = 16 ring for each of k = 2
// and k = 4 buses, so this is a claim about N = 16 only: the mean ratio
// of on-line completion time to the off-line greedy makespan must stay
// at most 4 for each k (it measures about 3.1 at k = 2 and 1.8 at k = 4).
func TestCompetitiveRatioBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	out, err := CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ratio: mean=") {
		t.Fatalf("missing summary:\n%s", out)
	}
	const bound = 4.0
	sum := map[string]float64{}
	runs := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || !strings.HasPrefix(f[0], "perm(") {
			continue
		}
		r, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			t.Fatalf("row %q: ratio: %v", line, err)
		}
		sum[f[1]] += r
		runs[f[1]]++
	}
	for _, k := range []string{"2", "4"} {
		if runs[k] != 6 {
			t.Fatalf("C1 has %d runs for k=%s, want 6:\n%s", runs[k], k, out)
		}
		if mean := sum[k] / float64(runs[k]); mean > bound {
			t.Errorf("N=16, k=%s: mean competitive ratio %.2f exceeds %.0f", k, mean, bound)
		}
	}
}
