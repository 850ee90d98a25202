package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rmb/internal/sim"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Error("empty summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Errorf("count %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Errorf("mean %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max %v/%v", s.Min(), s.Max())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-9 {
		t.Errorf("variance %v", s.Variance())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Errorf("string %q", s.String())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 1 + rng.Intn(100)
		var s Summary
		xs := make([]float64, n)
		sum := 0.0
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
			s.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		if math.Abs(s.Mean()-mean) > 1e-9 {
			return false
		}
		if n >= 2 {
			v := 0.0
			for _, x := range xs {
				v += (x - mean) * (x - mean)
			}
			v /= float64(n - 1)
			if math.Abs(s.Variance()-v) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Error("empty sample not zero")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Errorf("p99 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Median(); got != 50 {
		t.Errorf("median = %v", got)
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("mean = %v", got)
	}
	if s.Count() != 100 {
		t.Errorf("count = %d", s.Count())
	}
}

// TestSampleGrow: after Grow(n), n Adds allocate nothing, and the sample
// answers exactly as one built by plain Adds.
func TestSampleGrow(t *testing.T) {
	var grown, plain Sample
	// AllocsPerRun calls the function twice: a warm-up and one measured run.
	grown.Grow(128)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64; i++ {
			grown.Add(float64(i % 7))
		}
	})
	if allocs != 0 {
		t.Errorf("Adds within the Grow reservation allocated %v times, want 0", allocs)
	}
	for i := 0; i < 128; i++ {
		plain.Add(float64(i % 64 % 7))
	}
	if grown.Count() != plain.Count() || grown.Mean() != plain.Mean() || grown.Percentile(90) != plain.Percentile(90) {
		t.Errorf("grown sample diverged: count %d/%d mean %v/%v p90 %v/%v", grown.Count(), plain.Count(),
			grown.Mean(), plain.Mean(), grown.Percentile(90), plain.Percentile(90))
	}
}

func TestSamplePercentileAfterInterleavedAdds(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	if s.Median() != 1 { // nearest-rank of 2 samples at p50 is the first
		t.Errorf("median of {1,5} = %v", s.Median())
	}
	s.Add(9) // re-sorting must happen after new adds
	if s.Median() != 5 {
		t.Errorf("median of {1,5,9} = %v", s.Median())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, x := range []float64{0, 5, 15, 45, 49.9, 70, -3} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Errorf("total %d", h.Total())
	}
	if h.Bucket(0) != 3 { // 0, 5 and clamped -3
		t.Errorf("bucket 0 = %d", h.Bucket(0))
	}
	if h.Bucket(1) != 1 || h.Bucket(4) != 2 {
		t.Errorf("buckets: %d %d", h.Bucket(1), h.Bucket(4))
	}
	if h.Overflow() != 1 {
		t.Errorf("overflow %d", h.Overflow())
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "inf") {
		t.Errorf("render:\n%s", out)
	}
}

func TestHistogramEmptyRender(t *testing.T) {
	h := NewHistogram(1, 3)
	if !strings.Contains(h.Render(10), "empty") {
		t.Error("empty histogram render missing marker")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero width")
		}
	}()
	NewHistogram(0, 5)
}

func TestSeriesAndCrossover(t *testing.T) {
	a := &Series{Name: "rmb"}
	b := &Series{Name: "mesh"}
	for x := 1.0; x <= 5; x++ {
		a.Add(x, 10/x, "")
		b.Add(x, x, "")
	}
	// a: 10, 5, 3.3, 2.5, 2 ; b: 1..5 — a dips below b at x=4 (2.5<=4).
	x, ok := Crossover(a, b)
	if !ok || x != 4 {
		t.Errorf("crossover = %v, %v; want 4, true", x, ok)
	}
	if _, ok := Crossover(b, &Series{Name: "empty"}); ok {
		t.Error("crossover against empty series")
	}
	if y, ok := a.YAt(2); !ok || y != 5 {
		t.Errorf("YAt(2) = %v, %v", y, ok)
	}
	if _, ok := a.YAt(99); ok {
		t.Error("YAt(99) found")
	}
}

// TestPercentileNearestRankSmallN pins the nearest-rank definition at
// the sample sizes where off-by-one bugs hide: rank = ceil(p/100 * n),
// 1-indexed, so the median of two samples is the LOWER one and any
// p in (0, 100/n] maps to the first element.
func TestPercentileNearestRankSmallN(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"n=1 p=0", []float64{7}, 0, 7},
		{"n=1 p=1", []float64{7}, 1, 7},
		{"n=1 p=50", []float64{7}, 50, 7},
		{"n=1 p=99", []float64{7}, 99, 7},
		{"n=1 p=100", []float64{7}, 100, 7},
		{"n=2 p=25", []float64{10, 20}, 25, 10},
		{"n=2 p=50", []float64{10, 20}, 50, 10}, // nearest-rank median = lower
		{"n=2 p=50.1", []float64{10, 20}, 50.1, 20},
		{"n=2 p=75", []float64{10, 20}, 75, 20},
		{"n=2 p=100", []float64{10, 20}, 100, 20},
		{"n=2 unsorted", []float64{20, 10}, 50, 10},
		{"n=3 p=33.3", []float64{1, 2, 3}, 33.3, 1},
		{"n=3 p=33.4", []float64{1, 2, 3}, 33.4, 2},
		{"n=4 p=25", []float64{1, 2, 3, 4}, 25, 1},
		{"n=4 p=50", []float64{1, 2, 3, 4}, 50, 2},
		{"n=4 p=75", []float64{1, 2, 3, 4}, 75, 3},
		{"p<0 clamps", []float64{10, 20}, -5, 10},
		{"p>100 clamps", []float64{10, 20}, 200, 20},
	}
	for _, tc := range cases {
		var s Sample
		for _, x := range tc.xs {
			s.Add(x)
		}
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	var empty Sample
	if got := empty.Percentile(50); got != 0 {
		t.Errorf("empty sample Percentile = %v, want 0", got)
	}
}

// TestHistogramBucketBoundaries pins the left-closed bucket convention
// [i*w, (i+1)*w) and, in particular, that a value exactly on the last
// bucket's upper edge lands in the overflow bucket, not the last bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		x      float64
		bucket int // -1 means overflow
	}{
		{"zero", 0, 0},
		{"negative clamps to zero", -3, 0},
		{"interior", 5, 0},
		{"first edge", 10, 1},
		{"just below edge", 9.999, 0},
		{"last bucket low edge", 20, 2},
		{"last bucket interior", 29.999, 2},
		{"overflow edge exactly", 30, -1},
		{"beyond overflow edge", 31, -1},
		{"far overflow", 1e9, -1},
	}
	for _, tc := range cases {
		h := NewHistogram(10, 3)
		h.Add(tc.x)
		if tc.bucket == -1 {
			if h.Overflow() != 1 {
				t.Errorf("%s: Add(%v) overflow=%d, want 1", tc.name, tc.x, h.Overflow())
			}
			continue
		}
		if h.Bucket(tc.bucket) != 1 {
			got := -1
			for i := 0; i < 3; i++ {
				if h.Bucket(i) == 1 {
					got = i
				}
			}
			t.Errorf("%s: Add(%v) landed in bucket %d (overflow=%d), want %d",
				tc.name, tc.x, got, h.Overflow(), tc.bucket)
		}
		if h.Total() != 1 {
			t.Errorf("%s: Total=%d, want 1", tc.name, h.Total())
		}
	}
	// The overflow row renders with the correct lower edge.
	h := NewHistogram(10, 3)
	h.Add(30)
	if r := h.Render(10); !strings.Contains(r, "      30,     inf") {
		t.Errorf("overflow row mislabelled:\n%s", r)
	}
}

// TestSummaryMergeOfSplits is the property pinned in the docs: split a
// stream at an arbitrary set of cut points, summarize each piece, merge
// the pieces in order — the result must match a single-pass summary in
// count, mean, variance, min and max.
func TestSummaryMergeOfSplits(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		var single Summary
		for i := range xs {
			xs[i] = rng.Float64()*1000 - 500
			single.Add(xs[i])
		}
		// Split into 1..8 contiguous pieces (empty pieces allowed).
		pieces := 1 + rng.Intn(8)
		var merged Summary
		start := 0
		for p := 0; p < pieces; p++ {
			end := n
			if p < pieces-1 {
				end = start + rng.Intn(n-start+1)
			}
			var part Summary
			for _, x := range xs[start:end] {
				part.Add(x)
			}
			merged.Merge(part)
			start = end
		}
		if merged.Count() != single.Count() {
			return false
		}
		if merged.Min() != single.Min() || merged.Max() != single.Max() {
			return false
		}
		if math.Abs(merged.Mean()-single.Mean()) > 1e-9 {
			return false
		}
		return math.Abs(merged.Variance()-single.Variance()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	var a, b Summary
	b.Add(3)
	b.Add(5)
	a.Merge(b) // empty receiver adopts the argument wholesale
	if a.Count() != 2 || a.Mean() != 4 || a.Min() != 3 || a.Max() != 5 {
		t.Errorf("empty-receiver merge: %s", a.String())
	}
	before := a
	a.Merge(Summary{}) // merging an empty summary is a no-op
	if a != before {
		t.Errorf("empty-argument merge changed summary: %s", a.String())
	}
}
