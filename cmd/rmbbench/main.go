// Command rmbbench regenerates the paper's tables and figures and the
// extension experiments as terminal output, and converts `go test -bench`
// text into machine-readable JSON for baseline tracking.
//
// Usage:
//
//	rmbbench            # list available experiments
//	rmbbench -exp T1    # print one experiment's artifact
//	rmbbench -all       # print every artifact in DESIGN.md order
//	rmbbench -all -j 8  # same, computing artifacts on 8 workers
//	go test -bench . -benchtime=1x | rmbbench -benchjson
//	go test -bench . -count=3 | rmbbench -benchcmp BENCH_baseline.json -section event
//
// -benchcmp compares `go test -bench` text on stdin against one section
// of a baseline JSON file and exits 1 if any benchmark's best ns/op
// exceeds the baseline's best by more than -tolerance; the default is
// deliberately loose because CI hardware differs from the machine that
// recorded the baseline, so only order-of-magnitude regressions fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"rmb/internal/experiments"
	"rmb/internal/parallel"
	"rmb/internal/prof"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (T1, T2, F1..F11, L1, TH1, A1..A4, P1, P2, C1, C2, AB1..AB3)")
	all := flag.Bool("all", false, "run every experiment")
	jobs := flag.Int("j", 1, "experiments to compute in parallel with -all (0 = GOMAXPROCS)")
	benchjson := flag.Bool("benchjson", false, "parse `go test -bench` text on stdin into JSON on stdout")
	benchcmp := flag.String("benchcmp", "", "compare `go test -bench` text on stdin against this baseline JSON file")
	section := flag.String("section", "event", "baseline section to compare against with -benchcmp")
	tolerance := flag.Float64("tolerance", 8, "fail -benchcmp when ns/op exceeds baseline by this factor")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmbbench: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rmbbench: %v\n", err)
		}
	}()

	switch {
	case *benchcmp != "":
		regressions, err := benchCmp(*benchcmp, *section, *tolerance, os.Stdin, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbbench: -benchcmp: %v\n", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
	case *benchjson:
		rep, err := parseBench(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbbench: -benchjson: %v\n", err)
			os.Exit(1)
		}
		rep.GoVersion = runtime.Version()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "rmbbench: %v\n", err)
			os.Exit(1)
		}
	case *all:
		// Each experiment builds its own networks and RNGs, so the set
		// fans out cleanly; printing happens afterwards in DESIGN.md
		// order, making the output independent of -j.
		es := experiments.All()
		outs, err := parallel.Map(parallel.Workers(*jobs), len(es), func(i int) (string, error) {
			out, err := es[i].Run()
			if err != nil {
				return "", fmt.Errorf("%s: %w", es[i].ID, err)
			}
			return out, nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbbench: %v\n", err)
			os.Exit(1)
		}
		for i, e := range es {
			fmt.Printf("==== %s — %s ====\n\n", e.ID, e.Title)
			fmt.Println(outs[i])
		}
	case *exp != "":
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "rmbbench: unknown experiment %q; run without flags to list\n", *exp)
			os.Exit(2)
		}
		out, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmbbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
	default:
		fmt.Println("available experiments (use -exp <id> or -all):")
		for _, e := range experiments.All() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Title)
		}
	}
}
