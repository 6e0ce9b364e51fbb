package rng

import (
	"math"
	"testing"
)

// expDurReference is ExpDur's defining formula, as it was computed before
// the table path: the draw u = k/2^53 from the top 53 bits k of one word.
func expDurReference(k uint64, mean int64) int64 {
	u := float64(k) / (1 << 53)
	// Avoid log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := int64(-float64(mean) * math.Log(1-u))
	if d < 1 {
		d = 1
	}
	return d
}

// expDurMeans are the means the differential tests sweep: the workloads'
// lock holds, bursts, gaps and seeks, and one far past any of them.
var expDurMeans = []int64{1, 3, 1000, 1500, 2000, 20_000, 2_000_000, 5e7, 1 << 40}

// expDurFromWord returns ExpDur's result for the word w.
func expDurFromWord(w uint64, mean int64) int64 {
	return sourceYielding(w).ExpDur(mean)
}

// sourceYielding returns a Source whose next Uint64 is w. xoshiro256**'s
// output depends on s[1] alone: rotl(s[1]*5, 7)*9, and 5 and 9 are odd, so
// both multiplications invert modulo 2^64.
func sourceYielding(w uint64) *Source {
	const inv5, inv9 = 0xcccccccccccccccd, 0x8e38e38e38e38e39
	var s Source
	s.s[1] = rotl(w*inv9, 64-7) * inv5
	return &s
}

func TestSourceYieldingWord(t *testing.T) {
	for _, w := range []uint64{0, 1, 1 << 11, math.MaxUint64, 0x0123456789abcdef} {
		if got := sourceYielding(w).Uint64(); got != w {
			t.Fatalf("source for %#x yields %#x", w, got)
		}
	}
}

func TestExpDurMatchesReference(t *testing.T) {
	perMean := 22_300_000 // 9 means: 2.007e8 draws
	if testing.Short() {
		perMean = 200_000
	}
	for _, mean := range expDurMeans {
		for _, k := range []uint64{0, 1, 1<<53 - 1} {
			if got, want := expDurFromWord(k<<11, mean), expDurReference(k, mean); got != want {
				t.Fatalf("mean %d, k %d: ExpDur %d, reference %d", mean, k, got, want)
			}
		}
		a, b := New(uint64(mean)), New(uint64(mean))
		for i := 0; i < perMean; i++ {
			got := a.ExpDur(mean)
			k := b.Uint64() >> 11
			if want := expDurReference(k, mean); got != want {
				t.Fatalf("mean %d, k %d: ExpDur %d, reference %d", mean, k, got, want)
			}
		}
	}
}

// TestExpDurBoundaryInputs checks the draws where the table path could go
// wrong: for each mean and integer n, the smallest k at which the
// reference reaches n, and two neighbours either side. Where the steps of
// mean·y between neighbouring k are far inside the guard band, the table
// path must decline and leave the draw to math.Log.
func TestExpDurBoundaryInputs(t *testing.T) {
	for _, mean := range expDurMeans {
		var targets []int64
		for n := int64(1); n <= 300; n++ {
			targets = append(targets, n)
		}
		for f := 1e-4; f < 40; f *= 1.02 {
			if n := int64(math.Round(f * float64(mean))); n > 300 {
				targets = append(targets, n)
			}
		}
		cases, fallbacks := 0, 0
		for _, n := range targets {
			k, ok := boundaryK(n, mean)
			if !ok {
				continue
			}
			m := float64(1<<53 - k)
			// Keep n where k lands within 1e-9 of it, or, for the means
			// whose steps are all wider, within a step inside the band.
			if step := float64(mean) / m; step > max(1e-9, float64(mean)*0x1p-42) {
				continue
			}
			cases++
			for kk := k - 2; kk <= k+2; kk++ {
				if got, want := expDurFromWord(kk<<11, mean), expDurReference(kk, mean); got != want {
					t.Fatalf("mean %d, n %d, k %d: ExpDur %d, reference %d", mean, n, kk, got, want)
				}
			}
			// The band is at least mean·2^-40 wide; steps below a quarter
			// of it put k-1 and k both inside.
			if m > 0x1p42 {
				for _, kk := range []uint64{k - 1, k} {
					if _, ok := expDurTable(kk, mean); ok {
						t.Fatalf("mean %d, n %d, k %d: table path taken at a boundary", mean, n, kk)
					}
				}
				fallbacks++
			}
		}
		if cases < 10 || fallbacks < 5 {
			t.Fatalf("mean %d: %d boundary cases, %d of them checked for the fallback; want ≥ 10 and ≥ 5",
				mean, cases, fallbacks)
		}
	}
}

// boundaryK returns the smallest k whose reference draw reaches n, found
// by inverting the formula and stepping to the exact boundary.
func boundaryK(n, mean int64) (uint64, bool) {
	est := -math.Expm1(-float64(n)/float64(mean)) * (1 << 53)
	if est < 3 || est > 1<<53-4 {
		return 0, false
	}
	k := uint64(est)
	for i := 0; expDurReference(k, mean) >= n; i++ {
		if k == 0 || i == 1000 {
			return 0, false
		}
		k--
	}
	for i := 0; expDurReference(k, mean) < n; i++ {
		if k == 1<<53-1 || i == 1000 {
			return 0, false
		}
		k++
	}
	return k, k >= 2 && k <= 1<<53-3
}

func TestExpDurEdgeMeans(t *testing.T) {
	ks := []uint64{0, 1, 2, 1 << 20, 1 << 52, 1<<53 - 2, 1<<53 - 1}
	r := New(41)
	for i := 0; i < 100_000; i++ {
		ks = append(ks, r.Uint64()>>11)
	}
	for _, mean := range []int64{0, -5, math.MinInt64, 1 << 62, 1<<63 - 1} {
		for _, k := range ks {
			if got, want := expDurFromWord(k<<11, mean), expDurReference(k, mean); got != want {
				t.Fatalf("mean %d, k %d: ExpDur %d, reference %d", mean, k, got, want)
			}
		}
	}
}

func FuzzExpDurAgainstReference(f *testing.F) {
	for _, mean := range append(expDurMeans, 0, -5, 1<<62, 1<<63-1) {
		f.Add(uint64(0), mean)
		f.Add(uint64(1<<53-1), mean)
		f.Add(uint64(0x5555_5555_5555), mean)
	}
	f.Fuzz(func(t *testing.T, k uint64, mean int64) {
		k &= 1<<53 - 1
		if got, want := expDurFromWord(k<<11, mean), expDurReference(k, mean); got != want {
			t.Fatalf("mean %d, k %d: ExpDur %d, reference %d", mean, k, got, want)
		}
	})
}
