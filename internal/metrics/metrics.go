// Package metrics provides the small statistics toolkit used by the
// experiment harness: online summaries, percentile samples, fixed-width
// histograms and labelled series for parameter sweeps.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Summary accumulates count/mean/min/max/variance online (Welford).
type Summary struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.hasSamples || x < s.min {
		s.min = x
	}
	if !s.hasSamples || x > s.max {
		s.max = x
	}
	s.hasSamples = true
}

// Merge folds another summary into this one using the pairwise
// (Chan et al.) update, so partitioned or windowed collection composes:
// merging the summaries of any split of a stream yields the same
// count, mean, variance and extremes as a single pass (up to float
// rounding).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.mean += d * float64(o.n) / float64(n)
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Count reports the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Mean reports the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min and Max report the extremes (0 when empty).
func (s *Summary) Min() float64 { return s.min }
func (s *Summary) Max() float64 { return s.max }

// Variance reports the sample variance (0 for fewer than 2 samples).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String renders "n=.. mean=.. sd=.. min=.. max=..".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f max=%.0f",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Sample keeps every observation for exact percentile queries.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Grow reserves room for n more observations, so a caller that knows its
// count up front pays one allocation instead of append's doublings.
func (s *Sample) Grow(n int) {
	s.xs = slices.Grow(s.xs, n)
}

// Count reports the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Mean reports the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile reports the p-th percentile (0 <= p <= 100) by
// nearest-rank; 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.xs[rank]
}

// Median reports the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Histogram counts observations in fixed-width buckets starting at zero;
// values beyond the last bucket land in an overflow bucket.
type Histogram struct {
	width   float64
	buckets []int64
	over    int64
	total   int64
}

// NewHistogram builds a histogram of n buckets of the given width.
func NewHistogram(width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("metrics: histogram needs positive width and bucket count")
	}
	return &Histogram{width: width, buckets: make([]int64, n)}
}

// Add records one observation (negative values clamp to bucket zero).
func (h *Histogram) Add(x float64) {
	h.total++
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	if i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// Total reports the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Bucket reports the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Overflow reports the count beyond the last bucket.
func (h *Histogram) Overflow() int64 { return h.over }

// Render draws a text histogram with proportional bars of at most barMax
// characters.
func (h *Histogram) Render(barMax int) string {
	var b strings.Builder
	peak := h.over
	for _, c := range h.buckets {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return "(empty histogram)\n"
	}
	bar := func(c int64) string {
		n := int(float64(c) / float64(peak) * float64(barMax))
		if c > 0 && n == 0 {
			n = 1
		}
		return strings.Repeat("#", n)
	}
	for i, c := range h.buckets {
		lo := float64(i) * h.width
		hi := lo + h.width
		fmt.Fprintf(&b, "[%8.0f,%8.0f) %7d %s\n", lo, hi, c, bar(c))
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "[%8.0f,     inf) %7d %s\n", float64(len(h.buckets))*h.width, h.over, bar(h.over))
	}
	return b.String()
}

// Point is one (x, y) observation in a sweep series.
type Point struct {
	X, Y float64
	// Label optionally annotates the point (e.g. the swept parameter).
	Label string
}

// Series is a named sequence of sweep points.
type Series struct {
	Name   string
	Points []Point
}

// Add appends one point.
func (s *Series) Add(x, y float64, label string) {
	s.Points = append(s.Points, Point{X: x, Y: y, Label: label})
}

// YAt returns the first Y recorded for x, or (0, false).
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Crossover reports the smallest X at which series a's Y first becomes
// less than or equal to series b's Y at the same X (comparing only
// matching Xs), and whether such a point exists. Experiments use it to
// locate "who wins where" boundaries.
func Crossover(a, b *Series) (float64, bool) {
	for _, p := range a.Points {
		if q, ok := b.YAt(p.X); ok && p.Y <= q {
			return p.X, true
		}
	}
	return 0, false
}
