package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collide (%d/100)", same)
	}
}

func TestForkDeterminism(t *testing.T) {
	mk := func() *Source { return New(9).Fork(3) }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformMeanRoughlyCentered(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Uniform(10, 20)
	}
	mean := sum / n
	if mean < 14.8 || mean > 15.2 {
		t.Fatalf("Uniform(10,20) mean=%v, want ~15", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.ExpDur(100))
	}
	mean := sum / n
	if mean < 98 || mean > 102 {
		t.Fatalf("ExpDur(100) mean=%v, want ~100", mean)
	}
}

func TestExpDurAtLeastOne(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		if d := r.ExpDur(2); d < 1 {
			t.Fatalf("ExpDur returned %d < 1", d)
		}
	}
}

func TestUniformDur(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		v := r.UniformDur(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("UniformDur out of range: %d", v)
		}
	}
	if r.UniformDur(7, 7) != 7 {
		t.Fatal("UniformDur with equal bounds should return the bound")
	}
	// Swapped bounds are tolerated.
	if v := r.UniformDur(9, 5); v < 5 || v > 9 {
		t.Fatalf("UniformDur with swapped bounds: %d", v)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn over a power-of-two range covers both halves.
func TestIntnSpread(t *testing.T) {
	r := New(37)
	lo, hi := 0, 0
	for i := 0; i < 10000; i++ {
		if r.Intn(1024) < 512 {
			lo++
		} else {
			hi++
		}
	}
	if lo < 4500 || hi < 4500 {
		t.Fatalf("Intn badly skewed: lo=%d hi=%d", lo, hi)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkExpDur measures throughput: independent draws overlap, so the
// CPU hides much of a draw's latency.
func BenchmarkExpDur(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.ExpDur(1000)
	}
}

// BenchmarkExpDurChained measures latency, as a simulator sees it: each
// draw's result feeds the next draw's mean, so draws cannot overlap.
func BenchmarkExpDurChained(b *testing.B) {
	r := New(1)
	d := int64(0)
	for i := 0; i < b.N; i++ {
		d = r.ExpDur(1000 + d&1)
	}
}
