package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var testEnv *env

func TestMain(m *testing.M) {
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testEnv = e
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the program's own tables and to
// the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(testEnv.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run -C bench rmb/bench -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("metric or workload name %q is outside the contract's alphabet", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, n := range workloadNames {
		check(n, "")
		if why := workloadWhy[n]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", n, len(why))
		}
	}
	hasSetup := false
	for _, d := range endToEndDefs {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	for _, d := range perLayerDefs {
		check(d.Name, d.Unit)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 1 to 128", n)
	}
}

// TestSmoke runs every workload's traced variant at -short size. The
// traced run includes plain rounds, so one run per workload shows every
// end-to-end and every per-layer metric.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(testEnv, name, runConfig{seed: 1, seconds: 0, short: true, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.errs)
			}
			if v, _ := res.value("failed_share"); v != 0 {
				t.Errorf("failed_share = %v, want 0", v)
			}
			units := map[string]string{}
			for _, m := range res.metrics {
				units[m.Name] = m.Unit
			}
			for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
				if units[d.Name] != d.Unit {
					t.Errorf("metric %s: reported unit %q, want %q", d.Name, units[d.Name], d.Unit)
				}
			}
			for _, d := range endToEndDefs {
				if v, _ := res.value(d.Name); v <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, v)
				}
			}
			if v, _ := res.value("bench.oracle_checked_jobs"); v < 1 {
				t.Errorf("the oracle checked %v jobs", v)
			}
			spans, err := os.ReadFile(filepath.Join(testEnv.root, "bench", "out", "spans.jsonl"))
			if err != nil || len(spans) == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
}

// TestSimTotalsRepeat checks the benchmark's exact half: the simulated
// totals are a function of the seed and nothing else.
func TestSimTotalsRepeat(t *testing.T) {
	run := func(seed uint64) simTotals {
		t.Helper()
		res, err := runWorkload(testEnv, wSweepSmall, runConfig{seed: seed, short: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Fatalf("failed operations: %v", res.errs)
		}
		return res.sim
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Errorf("same seed, different simulated totals: %+v and %+v", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same simulated totals: %+v", a)
	}
	if a.ticks == 0 {
		t.Error("no simulated ticks were counted")
	}
}

// corruptResults is a reverse proxy that adds one to Stats.Delivered in
// every result body: the smallest lie a daemon could tell.
func corruptResults(daemonURL string) (string, func()) {
	target, err := url.Parse(daemonURL)
	if err != nil {
		panic(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if !strings.HasSuffix(resp.Request.URL.Path, "/result") || resp.StatusCode != http.StatusOK {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var res map[string]any
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		stats := res["Stats"].(map[string]any)
		stats["Delivered"] = stats["Delivered"].(float64) + 1
		if body, err = json.Marshal(res); err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return nil
	}
	srv := httptest.NewServer(proxy)
	return srv.URL, srv.Close
}

// TestOracleCatchesCorruption puts the lying proxy between the harness
// and the daemon: every oracle-checked job must be reported failed.
func TestOracleCatchesCorruption(t *testing.T) {
	rc := runConfig{seed: 1, short: true, opts: roundOpts{via: corruptResults}}
	res, err := runWorkload(testEnv, wSweepSmall, rc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(wSweepSmall, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed != p.oracleJobs*res.rounds {
		t.Errorf("a flipped Stats counter gave %d failed operations (correct=%v), want %d", res.failed, res.correct(), p.oracleJobs*res.rounds)
	}
}
