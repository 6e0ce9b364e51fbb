// Package metrics implements the measurement primitives the simulator and
// the benchmark harness use: event counters, log-bucketed latency histograms
// with quantiles, min/mean/max trackers, time-weighted gauges and the
// RFC 1889 interarrival-jitter estimator used by iPerf.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Summary tracks count/min/mean/max of a series without storing it.
type Summary struct {
	count uint64
	sum   float64
	min   float64
	max   float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
}

// Count returns the number of samples.
func (s *Summary) Count() uint64 { return s.count }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return finite(s.sum / float64(s.count))
}

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return finite(s.min)
}

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return finite(s.max)
}

// finite clamps the non-finite values that overflow-adjacent samples (e.g.
// two math.MaxFloat64 samples, whose sum is +Inf) produce in the running sum, so no
// NaN or Inf ever escapes into results — where it would poison downstream
// aggregation and serialise as invalid JSON.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// Histogram is a log-bucketed latency histogram. Values are expected to be
// non-negative (nanoseconds in practice); negative values clamp to zero.
//
// Buckets are: [0,1), then per-octave sub-buckets with subBuckets linear
// divisions per power of two, up to 2^63. With subBuckets=8 the relative
// quantile error is bounded by ~12.5%, which is ample for the latency-shape
// comparisons in the paper.
type Histogram struct {
	sub     int
	buckets []uint64
	summary Summary
}

const histMaxExp = 63

// NewHistogram returns a histogram with the given sub-bucket resolution
// (clamped to [1, 64]).
func NewHistogram(subBuckets int) *Histogram {
	if subBuckets < 1 {
		subBuckets = 1
	}
	if subBuckets > 64 {
		subBuckets = 64
	}
	return &Histogram{
		sub:     subBuckets,
		buckets: make([]uint64, 1+histMaxExp*subBuckets),
	}
}

func (h *Histogram) bucketIndex(v int64) int {
	if v < 1 {
		return 0
	}
	exp := 63 - leadingZeros64(uint64(v)) // floor(log2 v), 0..62
	base := int64(1) << uint(exp)
	// Position within the octave, [0, sub). Computed in float64 because the
	// int64 product (v-base)*sub overflows for v near the top octaves; the
	// result is identical for every v whose octave offset fits in a float64
	// mantissa, and merely coarser (never out of range) above that.
	frac := int(float64(v-base) * float64(h.sub) / float64(base))
	if frac >= h.sub {
		frac = h.sub - 1
	}
	idx := 1 + exp*h.sub + frac
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	return idx
}

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// bucketLower returns the inclusive lower bound of bucket idx.
func (h *Histogram) bucketLower(idx int) int64 {
	if idx == 0 {
		return 0
	}
	idx--
	exp := idx / h.sub
	frac := idx % h.sub
	base := int64(1) << uint(exp)
	// base*frac needs up to 69 bits in the top octaves; compute the exact
	// floor(base*frac/sub) through a 128-bit intermediate.
	hi, lo := bits.Mul64(uint64(base), uint64(frac))
	q, _ := bits.Div64(hi, lo, uint64(h.sub))
	return base + int64(q)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[h.bucketIndex(v)]++
	h.summary.Observe(float64(v))
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.summary.Count() }

// Mean returns the exact mean of recorded values.
func (h *Histogram) Mean() float64 { return h.summary.Mean() }

// Min returns the exact minimum recorded value.
func (h *Histogram) Min() int64 { return clampToInt64(h.summary.Min()) }

// Max returns the exact maximum recorded value.
func (h *Histogram) Max() int64 { return clampToInt64(h.summary.Max()) }

// clampToInt64 converts a float64 tracked by the inner Summary back to
// int64. float64(MaxInt64) rounds up to 2^63, which over-converts and wraps
// negative; saturate instead.
func clampToInt64(v float64) int64 {
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	if v <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(v)
}

// Quantile returns an approximation of the q-quantile (q in [0,1]).
// It returns 0 for an empty histogram. The result is clamped into
// [Min(), Max()]: bucket lower bounds systematically under-report at exact
// bucket boundaries (a single-sample histogram's p50 would come out below
// the sample), and no sample outside the observed range can be a quantile.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.summary.Count()
	if n == 0 {
		return 0
	}
	// The extreme quantiles are tracked exactly; skip the bucket walk so
	// they never under- or over-shoot to a bucket boundary.
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > rank {
			return h.clampToObserved(h.bucketLower(i))
		}
	}
	return h.Max()
}

// clampToObserved bounds a bucket-derived estimate by the exact observed
// range tracked in the inner summary.
func (h *Histogram) clampToObserved(v int64) int64 {
	if min := h.Min(); v < min {
		return min
	}
	if max := h.Max(); v > max {
		return max
	}
	return v
}

// String renders a short summary for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%d mean=%.1f p50=%d p99=%d max=%d",
		h.Count(), h.Min(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Jitter is the RFC 1889 (RTP) smoothed interarrival jitter estimator, the
// statistic iPerf reports for UDP streams. Transit times are supplied in
// nanoseconds; the estimate is available in milliseconds for reporting.
type Jitter struct {
	haveLast    bool
	lastTransit int64
	j           float64
	peak        float64
}

// ObserveTransit records the transit time (receive - send) of one packet.
func (j *Jitter) ObserveTransit(transit int64) {
	if j.haveLast {
		d := transit - j.lastTransit
		if d < 0 {
			d = -d
		}
		j.j += (float64(d) - j.j) / 16.0
		if j.j > j.peak {
			j.peak = j.j
		}
	}
	j.haveLast = true
	j.lastTransit = transit
}

// PeakMillis returns the maximum the smoothed estimator reached, in
// milliseconds. In a deterministic simulation the instantaneous estimator
// decays to zero whenever a measurement boundary lands in a quiet phase, so
// the peak is the robust indicator of scheduling-induced delay bursts.
func (j *Jitter) PeakMillis() float64 { return j.peak / 1e6 }

// Gauge tracks a step function of virtual time and integrates it, yielding
// time-weighted averages (e.g. average number of micro-sliced cores).
type Gauge struct {
	value    float64
	lastTime int64
	area     float64
	started  bool
	start    int64
}

// Set updates the gauge value at virtual time now (ns).
func (g *Gauge) Set(now int64, v float64) {
	if !g.started {
		g.started = true
		g.start = now
		g.lastTime = now
		g.value = v
		return
	}
	if now > g.lastTime {
		g.area += g.value * float64(now-g.lastTime)
		g.lastTime = now
	}
	g.value = v
}

// TimeAverage returns the time-weighted mean over [start, now].
func (g *Gauge) TimeAverage(now int64) float64 {
	if !g.started || now <= g.start {
		return g.value
	}
	area := g.area
	if now > g.lastTime {
		area += g.value * float64(now-g.lastTime)
	}
	return area / float64(now-g.start)
}

// Integral returns the integral of the step function over [start, now]
// (value·ns). For small integer-valued gauges the float64 sum is exact, so
// conformance laws can compare it against an integer ledger directly.
func (g *Gauge) Integral(now int64) float64 {
	if !g.started {
		return 0
	}
	area := g.area
	if now > g.lastTime {
		area += g.value * float64(now-g.lastTime)
	}
	return area
}

// Set is a registry of named counters, letting subsystems export counts
// without cross-package coupling.
type Set struct {
	counters map[string]*Counter
}

// NewSet returns an empty registry.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on first use.
func (s *Set) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	return c
}

// Handle returns an interned *Counter for name, creating it on first use.
// It is the documented accessor for hot paths: resolve the handle once at
// construction time and call Inc on it directly, so the steady state
// pays no map lookup or string hashing per increment.
func (s *Set) Handle(name string) *Counter {
	return s.Counter(name)
}

// Value returns the value of a named counter (0 if absent).
func (s *Set) Value(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Snapshot returns a copy of all counter values.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters))
	for name, c := range s.counters {
		out[name] = c.Value()
	}
	return out
}

// String renders the set sorted by name for stable logs.
func (s *Set) String() string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, s.counters[n].Value())
	}
	return b.String()
}
