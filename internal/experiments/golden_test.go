package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rmb/internal/parallel"
)

// artifactsPath is the committed output of `rmbbench -all`.
var artifactsPath = filepath.Join("..", "..", "docs", "artifacts.txt")

// artifact is one experiment's rendered output, or the error it failed
// with.
type artifact struct {
	out string
	err error
}

var (
	artifactsOnce sync.Once
	artifactsAll  []artifact
)

// runArtifacts runs every experiment once per test process, across
// GOMAXPROCS workers, and returns the results in All() order. Each
// experiment owns its networks and RNGs, so the outputs do not depend on
// the worker count — the property `rmbbench -all -j` relies on. The tests
// that need every artifact share this one run.
func runArtifacts() []artifact {
	artifactsOnce.Do(func() {
		es := All()
		artifactsAll, _ = parallel.Map(parallel.Workers(0), len(es), func(i int) (artifact, error) {
			out, err := es[i].Run()
			return artifact{out, err}, nil
		})
	})
	return artifactsAll
}

// artifactOf returns the output of the experiment with the given ID.
func artifactOf(t *testing.T, id string) string {
	t.Helper()
	for i, e := range All() {
		if e.ID == id {
			a := runArtifacts()[i]
			if a.err != nil {
				t.Fatalf("%s: %v", id, a.err)
			}
			return a.out
		}
	}
	t.Fatalf("unknown experiment %s", id)
	return ""
}

// TestGoldenArtifacts rebuilds what `rmbbench -all` prints — every
// experiment's artifact under its "==== ID — Title ====" header, each
// followed by a blank line — and compares it with docs/artifacts.txt
// byte for byte. Each experiment is a subtest checking its own section,
// so a drift names the artifact; the whole-file comparison after them
// also catches headers, order and spacing.
func TestGoldenArtifacts(t *testing.T) {
	raw, err := os.ReadFile(artifactsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	const regen = "if the change is intentional, regenerate with `go run ./cmd/rmbbench -all > docs/artifacts.txt`"
	var got strings.Builder
	for i, e := range All() {
		a := runArtifacts()[i]
		header := fmt.Sprintf("==== %s — %s ====\n\n", e.ID, e.Title)
		section := header + a.out + "\n"
		got.WriteString(section)
		t.Run(e.ID, func(t *testing.T) {
			if a.err != nil {
				t.Fatalf("%s: %v", e.ID, a.err)
			}
			start := strings.Index(want, header)
			if start < 0 {
				t.Fatalf("%s has no section in %s; %s", e.ID, artifactsPath, regen)
			}
			end := len(want)
			if k := strings.Index(want[start+len(header):], "\n==== "); k >= 0 {
				end = start + len(header) + k + 1
			}
			if w := want[start:end]; section != w {
				t.Errorf("%s drifted from %s at %s; %s", e.ID, artifactsPath, firstLineDiff(section, w), regen)
			}
		})
	}
	if got.String() != want {
		t.Errorf("rmbbench -all output differs from %s at %s; %s", artifactsPath, firstLineDiff(got.String(), want), regen)
	}
}

// firstLineDiff locates the first line where got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if i >= len(g) || i >= len(w) || gl != wl {
			return fmt.Sprintf("line %d:\n got:  %q\n want: %q", i+1, gl, wl)
		}
	}
	return "no line (identical)"
}
