package metrics

import (
	"math"
	"testing"
)

// assertFinite fails if v is NaN or infinite — the property every accessor
// must hold so nothing unrepresentable escapes into Results or JSON.
func assertFinite(t *testing.T, label string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("%s = %v, want finite", label, v)
	}
}

func assertSummaryFinite(t *testing.T, s *Summary) {
	t.Helper()
	assertFinite(t, "Mean", s.Mean())
	assertFinite(t, "Min", s.Min())
	assertFinite(t, "Max", s.Max())
}

func TestSummaryEdgeEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 {
		t.Fatalf("empty summary count=%d", s.Count())
	}
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary accessors must all be 0")
	}
	assertSummaryFinite(t, &s)
}

func TestSummaryEdgeSingleSample(t *testing.T) {
	var s Summary
	s.Observe(42)
	if s.Mean() != 42 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("single sample: mean=%v min=%v max=%v", s.Mean(), s.Min(), s.Max())
	}
	assertSummaryFinite(t, &s)
}

func TestSummaryEdgeAllEqual(t *testing.T) {
	var s Summary
	for i := 0; i < 1000; i++ {
		s.Observe(7.5)
	}
	if s.Mean() != 7.5 {
		t.Fatalf("Mean=%v, want 7.5", s.Mean())
	}
	assertSummaryFinite(t, &s)
}

// Overflow-adjacent samples: two MaxFloat64 samples overflow sum. Every accessor must still come back finite.
func TestSummaryEdgeOverflowAdjacent(t *testing.T) {
	var s Summary
	s.Observe(math.MaxFloat64)
	assertSummaryFinite(t, &s)
	if s.Max() != math.MaxFloat64 {
		t.Fatalf("Max=%v, want MaxFloat64", s.Max())
	}

	s.Observe(math.MaxFloat64) // sum is now +Inf
	assertSummaryFinite(t, &s)
	if got := s.Mean(); got != math.MaxFloat64 {
		t.Fatalf("overflowed Mean=%v, want clamp to MaxFloat64", got)
	}

	var neg Summary
	neg.Observe(-math.MaxFloat64)
	neg.Observe(-math.MaxFloat64)
	assertSummaryFinite(t, &neg)
	if got := neg.Mean(); got != -math.MaxFloat64 {
		t.Fatalf("overflowed negative Mean=%v, want clamp to -MaxFloat64", got)
	}
}

func TestHistogramEdgeEmpty(t *testing.T) {
	h := NewHistogram(8)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v)=%d, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram min/max must be 0")
	}
	assertFinite(t, "empty Mean", h.Mean())
}

func TestHistogramEdgeSingleSample(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(1000)
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		got := h.Quantile(q)
		// One sample: the bucket lower bound is clamped to the observed
		// min/max, so every quantile IS the sample.
		if got != 1000 {
			t.Fatalf("Quantile(%v)=%d, want exactly 1000 (the only sample)", q, got)
		}
	}
}

// TestHistogramQuantileBoundaryClamp pins the exact-boundary contract:
// quantiles are bucket lower bounds clamped into [Min, Max], so degenerate
// histograms (one sample, all-equal samples, two extremes) report observed
// values instead of under-shooting to a bucket edge.
func TestHistogramQuantileBoundaryClamp(t *testing.T) {
	quantiles := []float64{0, 0.25, 0.5, 0.75, 0.99, 0.999, 1}

	// A single sample: p50 (and every other quantile) == that sample,
	// across octave boundaries, mid-bucket values and the extremes.
	singles := []int64{1, 2, 3, 7, 8, 9, 1000, 4095, 4096, 4097,
		1<<20 + 123, 1 << 40, math.MaxInt64}
	for _, v := range singles {
		h := NewHistogram(8)
		h.Observe(v)
		for _, q := range quantiles {
			if got := h.Quantile(q); got != v {
				t.Errorf("single sample %d: Quantile(%v)=%d, want the sample", v, q, got)
			}
		}
	}

	// All-equal samples behave identically to one sample.
	for _, v := range []int64{5, 4096, 1<<30 + 1} {
		h := NewHistogram(8)
		for i := 0; i < 500; i++ {
			h.Observe(v)
		}
		for _, q := range quantiles {
			if got := h.Quantile(q); got != v {
				t.Errorf("500× %d: Quantile(%v)=%d, want the sample", v, q, got)
			}
		}
	}

	// Two samples: the extreme quantiles are exactly the observed extremes
	// and everything in between stays inside [lo, hi].
	two := []struct{ lo, hi int64 }{
		{1, 2}, {1, 1000000}, {4095, 4097}, {1000, 1000},
	}
	for _, c := range two {
		h := NewHistogram(8)
		h.Observe(c.lo)
		h.Observe(c.hi)
		if got := h.Quantile(0); got != c.lo {
			t.Errorf("{%d,%d}: Quantile(0)=%d, want min", c.lo, c.hi, got)
		}
		if got := h.Quantile(1); got != c.hi {
			t.Errorf("{%d,%d}: Quantile(1)=%d, want max", c.lo, c.hi, got)
		}
		for _, q := range quantiles {
			if got := h.Quantile(q); got < c.lo || got > c.hi {
				t.Errorf("{%d,%d}: Quantile(%v)=%d outside observed range", c.lo, c.hi, q, got)
			}
		}
	}
}

func TestHistogramEdgeAllEqual(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 500; i++ {
		h.Observe(4096)
	}
	lo, hi := h.Quantile(0), h.Quantile(1)
	if lo != hi {
		t.Fatalf("all-equal quantiles differ: q0=%d q1=%d", lo, hi)
	}
	if h.Quantile(1) != 4096 { // power of two is its own bucket lower bound
		t.Fatalf("Quantile(1)=%d, want 4096", h.Quantile(1))
	}
}

// Values in the top octaves used to overflow the int64 sub-bucket
// arithmetic, producing a negative fraction and a wrong (potentially
// out-of-range) bucket. All of these must index in-bounds, keep quantiles
// ordered and stay finite.
func TestHistogramEdgeOverflowAdjacent(t *testing.T) {
	h := NewHistogram(8)
	huge := []int64{
		math.MaxInt64,
		math.MaxInt64 - 1,
		1 << 62,
		(1 << 62) + (1 << 61), // deep into the top octave
		1 << 60,
	}
	for _, v := range huge {
		h.Observe(v)
	}
	if h.Count() != uint64(len(huge)) {
		t.Fatalf("Count=%d, want %d", h.Count(), len(huge))
	}
	if h.Max() != math.MaxInt64 {
		t.Fatalf("Max=%d, want MaxInt64", h.Max())
	}
	var prev int64
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		got := h.Quantile(q)
		if got < 0 {
			t.Fatalf("Quantile(%v)=%d went negative (bucket overflow)", q, got)
		}
		if got < prev {
			t.Fatalf("Quantile(%v)=%d < previous %d: non-monotonic", q, got, prev)
		}
		prev = got
	}
	if q := h.Quantile(0); q < 1<<59 {
		t.Fatalf("Quantile(0)=%d, want within an octave of 2^60", q)
	}
	assertFinite(t, "huge Mean", h.Mean())
}

// bucketIndex must stay in-bounds for every magnitude, including the values
// whose (v-base)*sub product overflows int64.
func TestHistogramBucketIndexInBounds(t *testing.T) {
	for _, sub := range []int{1, 8, 64} {
		h := NewHistogram(sub)
		for exp := 0; exp < 63; exp++ {
			for _, off := range []int64{0, 1} {
				v := int64(1)<<uint(exp) + off
				idx := h.bucketIndex(v)
				if idx < 0 || idx >= len(h.buckets) {
					t.Fatalf("sub=%d v=%d: bucket %d out of range [0,%d)", sub, v, idx, len(h.buckets))
				}
				if lower := h.bucketLower(idx); lower > v {
					t.Fatalf("sub=%d v=%d: bucketLower(%d)=%d exceeds value", sub, v, idx, lower)
				}
			}
		}
		if idx := h.bucketIndex(math.MaxInt64); idx < 0 || idx >= len(h.buckets) {
			t.Fatalf("sub=%d MaxInt64: bucket %d out of range", sub, idx)
		}
	}
}
