package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/microslicedcore/microsliced/internal/rng"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("new counter not zero")
	}
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("counter=%d, want 2", c.Value())
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Observe(v)
	}
	if s.Count() != 5 {
		t.Fatalf("count=%d", s.Count())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-2.8) > 1e-9 {
		t.Fatalf("mean=%v", s.Mean())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram(8)
	vals := []int64{10, 20, 30, 40, 1000000}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count=%d", h.Count())
	}
	if h.Min() != 10 || h.Max() != 1000000 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-200020.0) > 1e-6 {
		t.Fatalf("mean=%v", h.Mean())
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(-5)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative clamp failed: %s", h)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(8)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(16)
	r := rng.New(1)
	var raw []int64
	for i := 0; i < 50000; i++ {
		v := r.ExpDur(10000)
		raw = append(raw, v)
		h.Observe(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := raw[int(q*float64(len(raw)-1))]
		approx := h.Quantile(q)
		relErr := math.Abs(float64(approx-exact)) / float64(exact)
		if relErr > 0.10 {
			t.Errorf("q=%v exact=%d approx=%d relErr=%.3f", q, exact, approx, relErr)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		h := NewHistogram(8)
		r := rng.New(seed)
		for i := 0; i < 500; i++ {
			h.Observe(int64(r.Intn(1 << 20)))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int64{5, 5, 5} {
		h.Observe(v)
	}
	// Clamped q values must not panic and stay within [min, max].
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		v := h.Quantile(q)
		if v < 0 || v > 5 {
			t.Fatalf("q=%v gave %d", q, v)
		}
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	h := NewHistogram(8)
	f := func(vRaw uint32) bool {
		v := int64(vRaw)
		idx := h.bucketIndex(v)
		lower := h.bucketLower(idx)
		if lower > v {
			return false
		}
		// The next bucket's lower bound must exceed v.
		if idx+1 < len(h.buckets) && h.bucketLower(idx+1) <= v {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterConstantTransitIsZero(t *testing.T) {
	var j Jitter
	for i := 0; i < 100; i++ {
		j.ObserveTransit(5000)
	}
	if j.j != 0 || j.peak != 0 {
		t.Fatalf("constant transit jitter=%v peak=%v, want 0", j.j, j.peak)
	}
}

func TestJitterConvergesToMeanAbsDelta(t *testing.T) {
	// Alternate transit 0/16000 -> |D| = 16000 always; RFC filter converges to 16000.
	var j Jitter
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			j.ObserveTransit(0)
		} else {
			j.ObserveTransit(16000)
		}
	}
	if math.Abs(j.j-16000) > 1 {
		t.Fatalf("jitter=%v, want ~16000", j.j)
	}
	if j.peak < j.j {
		t.Fatalf("peak %v below current %v", j.peak, j.j)
	}
}

func TestJitterPeakSurvivesDecay(t *testing.T) {
	var j Jitter
	j.ObserveTransit(0)
	j.ObserveTransit(32_000_000) // one 32ms burst
	burst := j.j
	if burst < 1e6 {
		t.Fatalf("burst estimator %v", burst)
	}
	for i := 0; i < 1000; i++ {
		j.ObserveTransit(32_000_000) // constant transit: estimator decays
	}
	if j.j > 1 {
		t.Fatalf("estimator did not decay: %v", j.j)
	}
	if j.PeakMillis() != burst/1e6 {
		t.Fatalf("PeakMillis %v", j.PeakMillis())
	}
}

func TestGaugeTimeAverage(t *testing.T) {
	var g Gauge
	g.Set(0, 1)
	g.Set(100, 3) // value 1 over [0,100)
	g.Set(200, 0) // value 3 over [100,200)
	// Average over [0,300]: (1*100 + 3*100 + 0*100)/300 = 4/3
	avg := g.TimeAverage(300)
	if math.Abs(avg-4.0/3.0) > 1e-9 {
		t.Fatalf("time average=%v", avg)
	}
	if g.value != 0 {
		t.Fatalf("value=%v", g.value)
	}
}

func TestGaugeBeforeStart(t *testing.T) {
	var g Gauge
	if g.TimeAverage(10) != 0 {
		t.Fatal("unset gauge should average 0")
	}
	g.Set(50, 7)
	if g.TimeAverage(50) != 7 {
		t.Fatal("zero-width average should return current value")
	}
}

func TestSetRegistry(t *testing.T) {
	s := NewSet()
	s.Counter("a").Inc()
	s.Counter("b").Inc()
	s.Counter("b").Inc()
	s.Counter("a").Inc()
	if s.Value("a") != 2 || s.Value("b") != 2 {
		t.Fatalf("a=%d b=%d", s.Value("a"), s.Value("b"))
	}
	var owned Counter
	s.Bind("c", &owned)
	owned.Inc()
	if s.Counter("c") != &owned || s.Value("c") != 1 {
		t.Fatalf("bound counter not shared: Value(c)=%d", s.Value("c"))
	}
	s.Counter("c").Inc()
	if owned.Value() != 2 {
		t.Fatalf("owner sees %d after an increment through the set, want 2", owned.Value())
	}
	if s.Value("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	snap := s.Snapshot()
	if snap["a"] != 2 {
		t.Fatalf("snapshot=%v", snap)
	}
	if got := s.String(); got != "a=2 b=2 c=2" {
		t.Fatalf("String()=%q", got)
	}
}

// BenchmarkHistogramObserve records latencies spread from 100 ns to 10 ms:
// exponential draws whose means are log-uniform over that range.
func BenchmarkHistogramObserve(b *testing.B) {
	r := rng.New(1)
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = r.ExpDur(int64(100 * math.Pow(10, 5*r.Float64())))
	}
	h := NewHistogram(8)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(vals[i&(len(vals)-1)])
		i++
	}); allocs != 0 {
		b.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.Observe(vals[n&(len(vals)-1)])
	}
}

func TestHandleIsInterned(t *testing.T) {
	s := NewSet()
	h := s.Counter("x")
	h.Inc()
	h.Inc()
	if s.Value("x") != 2 {
		t.Fatalf("Value(x)=%d, want 2", s.Value("x"))
	}
	if s.Counter("x") != h {
		t.Fatal("Counter did not return the interned counter")
	}
}

// BenchmarkCounterInc is the regression check for the interned-counter path:
// incrementing through a resolved *Counter must not allocate or touch the
// registry map.
func BenchmarkCounterInc(b *testing.B) {
	s := NewSet()
	h := s.Counter("yield.total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

// BenchmarkCounterLookupInc measures the string-keyed path the hot loops
// used before interning, for comparison in bench reports.
func BenchmarkCounterLookupInc(b *testing.B) {
	s := NewSet()
	s.Counter("yield.total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Counter("yield.total").Inc()
	}
}
