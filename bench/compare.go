package main

import (
	"fmt"
	"math"
	"strings"
)

// runSelfcheck runs the suite twice back to back and holds the second
// run to the first: every end-to-end metric within its bound, simulated
// totals exactly equal. It is the driver's acceptance test, runnable by
// hand.
func runSelfcheck(e *env, names []string, rc runConfig) error {
	rc.trace = false
	bad := 0
	for _, n := range names {
		var runs [2]*result
		for i := range runs {
			r, err := runWorkload(e, n, rc)
			if err != nil {
				return err
			}
			runs[i] = r
		}
		fmt.Printf("\n== selfcheck %s ==\n", n)
		fmt.Printf("%-18s %14s %14s %9s %7s  %s\n", "metric", "first", "second", "worse by", "bound", "verdict")
		for _, d := range endToEndDefs {
			a, _ := runs[0].value(d.Name)
			b, _ := runs[1].value(d.Name)
			worse := ratio(b-a, a)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-18s %14.6g %14.6g %8.1f%% %6.0f%%  %s\n", d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
		verdict := "ok"
		if runs[0].sim != runs[1].sim {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Printf("%-18s %s\n", "core.sim_*", verdict)
		fmt.Printf("%-18s %14d %14d\n", "cache hits", runs[0].cacheHits, runs[1].cacheHits)
		for _, r := range runs {
			if !r.correct() {
				fmt.Printf("FAILED operations: %d of %d: %v\n", r.failed, r.attempted, r.errs)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: selfcheck: %d disagreements", bad)
	}
	return nil
}

// abPairs is how many alternating pairs -ab runs; abRounds is how many
// sweep-small rounds make one side of a pair.
const (
	abPairs  = 10
	abRounds = 2
)

// runAB compares the default daemon with one given extra flags, with no
// source change: alternating pairs of sweep-small rounds, medians and
// quartiles of both sides, and a win count. By the guide's rule a
// difference is resolved only when one side wins at least nine tenths
// of the pairs and the medians differ by more than the baseline's own
// quartile spread.
func runAB(e *env, rc runConfig, flags []string) error {
	p, err := buildPlan(wSweepSmall, rc.seed, rc.short)
	if err != nil {
		return err
	}
	side := func(extra []string) (float64, error) {
		var rates []float64
		for i := 0; i < abRounds; i++ {
			r, err := runRound(e, p, roundOpts{daemonFlags: extra}, nil)
			if err != nil {
				return 0, err
			}
			if n := len(r.outcomes) - len(r.completed()); n > 0 {
				return 0, fmt.Errorf("bench: -ab: %d failed operations", n)
			}
			rates = append(rates, jobsPerSec(r))
		}
		return median(rates), nil
	}
	with := strings.Join(flags, " ")
	var a, b []float64
	winsB, winsA := 0, 0
	for i := 0; i < abPairs; i++ {
		var x, y float64
		// Alternate which side goes first.
		if i%2 == 0 {
			if x, err = side(nil); err == nil {
				y, err = side(flags)
			}
		} else {
			if y, err = side(flags); err == nil {
				x, err = side(nil)
			}
		}
		if err != nil {
			return err
		}
		a, b = append(a, x), append(b, y)
		switch {
		case y > x:
			winsB++
		case x > y:
			winsA++
		}
		fmt.Printf("pair %2d: default %.2f jobs/s, with %s %.2f jobs/s\n", i+1, x, with, y)
	}
	q := func(v []float64) (float64, float64, float64) {
		return quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	}
	a1, a2, a3 := q(a)
	b1, b2, b3 := q(b)
	fmt.Printf("\nsweep-small jobs_per_s over %d pairs of %d×%d jobs\n", abPairs, abRounds, len(p.jobs))
	fmt.Printf("%-16s median %.2f  quartiles [%.2f, %.2f]\n", "default", a2, a1, a3)
	fmt.Printf("%-16s median %.2f  quartiles [%.2f, %.2f]\n", "with "+with, b2, b1, b3)
	fmt.Printf("flags win %d, default wins %d, difference %+.2f%% of default\n", winsB, winsA, 100*ratio(b2-a2, a2))
	if max(winsA, winsB) < abPairs*9/10 || math.Abs(b2-a2) <= a3-a1 {
		fmt.Println("verdict: unresolved (the difference is within the default's own run-to-run spread)")
	} else {
		fmt.Println("verdict: resolved")
	}
	return nil
}
