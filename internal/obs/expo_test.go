package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestHistogramWriteParseRoundTrip renders a live histogram and feeds
// it back through the parser: the reassembled bounds, cumulative
// counts, sum and count must survive the text round trip exactly.
func TestHistogramWriteParseRoundTrip(t *testing.T) {
	h := &Histogram{}
	for _, d := range []time.Duration{
		3 * time.Microsecond, 900 * time.Microsecond, 900 * time.Microsecond,
		40 * time.Millisecond, 2 * time.Second, 3 * time.Minute,
	} {
		h.Observe(d)
	}
	snap := h.Snapshot()

	var buf bytes.Buffer
	if err := WriteHistogramHeader(&buf, "rmbd_job_run_seconds", "Job run phase latency."); err != nil {
		t.Fatal(err)
	}
	if err := WriteHistogram(&buf, "rmbd_job_run_seconds", "", snap); err != nil {
		t.Fatal(err)
	}

	e, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("parsing rendered exposition: %v\n%s", err, buf.String())
	}
	f := e.Family("rmbd_job_run_seconds")
	if f == nil {
		t.Fatal("family missing after round trip")
	}
	if f.Type != "histogram" || f.Help == "" {
		t.Fatalf("family header lost: %+v", f)
	}
	hs, err := f.Histograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 {
		t.Fatalf("got %d label sets, want 1", len(hs))
	}
	got := hs[0]
	if len(got.Bounds) != NumBuckets || len(got.Cumulative) != NumBuckets+1 {
		t.Fatalf("bounds/buckets shape: %d/%d", len(got.Bounds), len(got.Cumulative))
	}
	for i := range got.Bounds {
		if got.Bounds[i] != bounds[i] {
			t.Fatalf("bound %d = %g, want %g", i, got.Bounds[i], bounds[i])
		}
	}
	for i := range got.Cumulative {
		if got.Cumulative[i] != snap.Cumulative[i] {
			t.Fatalf("cumulative %d = %d, want %d", i, got.Cumulative[i], snap.Cumulative[i])
		}
	}
	if got.Count != snap.Count || math.Abs(got.Sum-snap.Sum) > 1e-9 {
		t.Fatalf("sum/count drifted: %g/%d vs %g/%d", got.Sum, got.Count, snap.Sum, snap.Count)
	}
	if q := got.Quantile(0.5); math.Abs(q-snap.Quantile(0.5)) > 1e-12 {
		t.Fatalf("parsed p50 %g != live p50 %g", q, snap.Quantile(0.5))
	}
}

func TestLabelledHistogramGrouping(t *testing.T) {
	fast, slow := &Histogram{}, &Histogram{}
	fast.Observe(time.Microsecond)
	fast.Observe(2 * time.Microsecond)
	slow.Observe(time.Second)

	var buf bytes.Buffer
	if err := WriteHistogramHeader(&buf, "rmbd_http_request_seconds", "HTTP latency."); err != nil {
		t.Fatal(err)
	}
	if err := WriteHistogram(&buf, "rmbd_http_request_seconds", `route="submit",code="202"`, fast.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteHistogram(&buf, "rmbd_http_request_seconds", `route="status",code="404"`, slow.Snapshot()); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := e.Family("rmbd_http_request_seconds").Histograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 {
		t.Fatalf("got %d label sets, want 2", len(hs))
	}
	byRoute := map[string]ParsedHistogram{}
	for _, h := range hs {
		byRoute[h.Labels["route"]] = h
	}
	if byRoute["submit"].Count != 2 || byRoute["submit"].Labels["code"] != "202" {
		t.Fatalf("submit series wrong: %+v", byRoute["submit"])
	}
	if byRoute["status"].Count != 1 {
		t.Fatalf("status series wrong: %+v", byRoute["status"])
	}
}

// TestParserRejectsInvalid seeds the violations the validity test in
// internal/service must catch: the parser is the oracle, so it has to
// reject each class.
func TestParserRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"sample without header": "orphan_total 3\n",
		"duplicate TYPE":        "# HELP x h\n# TYPE x counter\n# TYPE x counter\nx 1\n",
		"TYPE after samples":    "# HELP x h\n# TYPE x counter\nx 1\n# TYPE y gauge\n# HELP y h\n",
		"unknown type":          "# HELP x h\n# TYPE x histo\n",
		"bad value":             "# HELP x h\n# TYPE x counter\nx notanumber\n",
		"unterminated labels":   "# HELP x h\n# TYPE x counter\nx{a=\"b\" 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted invalid exposition", name)
		}
	}

	hists := map[string]string{
		"no +Inf terminal": `# HELP h x
# TYPE h histogram
h_bucket{le="0.1"} 1
h_sum 0.05
h_count 1
`,
		"decreasing cumulative": `# HELP h x
# TYPE h histogram
h_bucket{le="0.1"} 5
h_bucket{le="0.2"} 3
h_bucket{le="+Inf"} 5
h_sum 0.5
h_count 5
`,
		"non-ascending bounds": `# HELP h x
# TYPE h histogram
h_bucket{le="0.2"} 1
h_bucket{le="0.1"} 2
h_bucket{le="+Inf"} 2
h_sum 0.3
h_count 2
`,
		"count mismatch": `# HELP h x
# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 2
h_sum 0.2
h_count 7
`,
		"missing sum": `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 0
h_count 0
`,
	}
	for name, text := range hists {
		e, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Errorf("%s: parse failed before validation: %v", name, err)
			continue
		}
		if _, err := e.Family("h").Histograms(); err == nil {
			t.Errorf("%s: Histograms() accepted invalid series", name)
		}
	}
}
