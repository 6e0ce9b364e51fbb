package metrics

import (
	"math"
	"math/bits"
	"testing"
)

// floatExactBelow bounds the values for which the float sub-bucket formula
// the histogram used before is exact: below 2^48 the octave offset times
// sub stays under 2^53 for every sub in 1..64. 2^48 ns is 78 hours, far
// past any run, so below it bucketIndex must file every value where the
// float formula did.
const floatExactBelow = int64(1) << 48

// checkBucket fails t unless v (>= 0) lies in its bucket's bounds
// [bucketLower(idx), bucketLower(idx+1)), the top bucket ending at 2^63,
// and, for 1 <= v < floatExactBelow, idx is the float formula's.
func checkBucket(t *testing.T, h *Histogram, v int64) {
	t.Helper()
	idx := h.bucketIndex(v)
	lo, next := uint64(h.bucketLower(idx)), uint64(1)<<63
	if idx+1 < len(h.buckets) {
		next = uint64(h.bucketLower(idx + 1))
	}
	if uint64(v) < lo || uint64(v) >= next {
		t.Fatalf("sub=%d v=%d: bucket %d spans [%d, %d)", h.sub, v, idx, lo, next)
	}
	if v >= 1 && v < floatExactBelow {
		exp := 63 - bits.LeadingZeros64(uint64(v))
		base := int64(1) << uint(exp)
		if want := 1 + exp*h.sub + int(float64(v-base)*float64(h.sub)/float64(base)); idx != want {
			t.Fatalf("sub=%d v=%d: bucketIndex=%d, float formula %d", h.sub, v, idx, want)
		}
	}
}

// TestBucketIndexExact checks, for every sub in 1..64, 0, MaxInt64 and
// every sub-bucket boundary base+ceil(base*k/sub) ±2 (k in 0..sub) of
// every octave 0..62.
func TestBucketIndexExact(t *testing.T) {
	for sub := 1; sub <= 64; sub++ {
		h := NewHistogram(sub)
		checkBucket(t, h, 0)
		checkBucket(t, h, math.MaxInt64)
		for exp := 0; exp < 63; exp++ {
			base := uint64(1) << uint(exp)
			for k := 0; k <= sub; k++ {
				hi, lo := bits.Mul64(base, uint64(k))
				q, r := bits.Div64(hi, lo, uint64(sub))
				if r != 0 {
					q++
				}
				for d := uint64(0); d <= 4; d++ {
					if v := base + q + d - 2; v >= 1 && v <= math.MaxInt64 {
						checkBucket(t, h, int64(v))
					}
				}
			}
		}
	}
}

// FuzzHistogramBucketIndex runs checkBucket on random (v, sub).
func FuzzHistogramBucketIndex(f *testing.F) {
	f.Add(int64(0), uint8(7))
	f.Add(int64(30000), uint8(7))
	f.Add(int64(1365), uint8(2))
	f.Add(int64(1)<<54-1, uint8(7))
	f.Add(int64(math.MaxInt64), uint8(63))
	var hists [65]*Histogram
	for sub := 1; sub <= 64; sub++ {
		hists[sub] = NewHistogram(sub)
	}
	f.Fuzz(func(t *testing.T, v int64, subRaw uint8) {
		checkBucket(t, hists[int(subRaw)%64+1], v&math.MaxInt64)
	})
}
