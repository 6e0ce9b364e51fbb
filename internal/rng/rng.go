// Package rng provides the deterministic pseudo-random source used by all
// workload generators and simulators.
//
// The simulator cannot use math/rand's global source (seeding discipline is
// too loose for reproducible fleet runs) and must not use crypto/rand.
// xoshiro256** seeded via splitmix64 gives high-quality 64-bit streams with
// a tiny state that can be forked per-component so that adding one workload
// never perturbs the random stream of another.
package rng

import "math"

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, so nearby seeds
// still produce decorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// xoshiro requires a non-zero state; splitmix64 of any seed gives one,
	// but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Fork derives an independent child stream. The label decorrelates children
// forked from the same parent state.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformDur returns a uniform int64 in [lo, hi]. Used for jittered service
// times; lo and hi may be equal.
func (r *Source) UniformDur(lo, hi int64) int64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	if hi == lo {
		return lo
	}
	return lo + r.Int63n(hi-lo+1)
}

// ExpDur returns an exponentially distributed duration (ns) with mean mean:
// int64(-float64(mean)*math.Log(1-u)) for u = k/2^53, k the top 53 bits of
// one word, raised to 1 when it is below 1 so callers can use it directly as
// a service time. mean <= 0 always gives 1, and so does a product past the
// int64 range, as the conversion of the formula does on amd64.
//
// The result is exactly that formula's, but math.Log runs only when the
// draw lands within a guard band of an integer (expDurLog). Otherwise
// y = -log(1-u) comes from a table: m = 2^53-k is an exact float64 with
// m = 2^e·f, f in [1,2), and j, the top expTabBits bits of f's mantissa,
// picks the midpoint c of f's sub-interval, with inv = fl(1/c) and
// lg = -log(inv) (math.Log at init). Then
//
//	y = (53-e)·ln2 - lg - log1p(x),  x = f·inv - 1,  |x| < 2^-11,
//
// and log1p is x - x²·((1/2 - x/3) + x²/4). Every term is a plain product or
// sum, so a fused multiply-add only removes roundings. Against the exact
// y, the computed y is off by at most 2^-46 in absolute terms:
//
//   - the series' truncation, |x|^5/5/(1-|x|) < 2^-57, and its rounding
//     below 2^-62 (it is smaller than 2^-11);
//   - x's rounding, ≤ 2^-53 (f·inv is within 2^-11 of 1, the subtraction
//     of 1 is exact);
//   - lg's rounding, one ulp of math.Log on a value below 1: ≤ 2^-53;
//   - ln2's rounding times 53-e ≤ 53: ≤ 53·2^-54 < 2^-48;
//   - three roundings of values below 64, 2^-48 each.
//
// The sum is below 3.9·2^-48. With d = fl(mean·y) and the reference
// r = fl(mean·y_log), where math.Log is within one ulp (relative 2^-52) of
// the exact y, |d - r| ≤ mean·2^-46 + d·2^-51 to first order. The band
// δ = mean·2^-40 + d·2^-44 is 64 and 128 times wider in the two terms,
// which also absorbs the roundings of δ and d±δ, so r lies in
// [fl(d-δ), fl(d+δ)]. So when d-δ and d+δ truncate to the same integer,
// d and r do too (the conversion is monotone below 2^63 and gives one
// integer, MinInt64 on amd64, for every value at or past it), and the
// table returns int64(d) raised to 1 (a band inside (-1, 1) truncates to
// 0 at both ends and gives 1, as r < 1 does). Every other draw falls back
// to math.Log. The
// result depends on d alone, not on δ, so the guard stays off the path
// that feeds the caller. The fallback rate is about 2δ, mean·2·10^-12 per
// draw: 4·10^-6 at mean 2·10^6 and 10^-4 at 5·10^7, but every draw at 2^40.
func (r *Source) ExpDur(mean int64) int64 {
	k := r.Uint64() >> 11
	if n, ok := expDurTable(k, mean); ok {
		return n
	}
	return expDurLog(k, mean)
}

// expDurTable is ExpDur's table path on the top 53 bits k of a word. It
// reports false when the draw lies within the guard band of an integer.
func expDurTable(k uint64, mean int64) (int64, bool) {
	bits := math.Float64bits(float64(1<<53 - k))
	t := &expTab[bits>>(52-expTabBits)&(1<<expTabBits-1)]
	x := math.Float64frombits(bits&(1<<52-1)|1023<<52)*t.inv - 1
	x2 := x * x
	p := x - x2*((0.5-x*(1.0/3))+x2*0.25)
	y := (float64(1023+53-int(bits>>52))*math.Ln2 - t.lg) - p
	d := float64(mean) * y
	delta := float64(mean)*0x1p-40 + d*0x1p-44
	return max(int64(d), 1), int64(d-delta) == int64(d+delta)
}

// expDurLog is ExpDur's reference formula on the top 53 bits k of a word.
func expDurLog(k uint64, mean int64) int64 {
	return max(int64(-float64(mean)*math.Log(1-float64(k)/(1<<53))), 1)
}

// expTabBits is log2 of expTab's size: the mantissa bits that pick an entry.
const expTabBits = 10

// expTab[j] serves mantissas f in [1+j/2^expTabBits, 1+(j+1)/2^expTabBits):
// inv is the float64 reciprocal of the interval's midpoint and lg is
// -log(inv), so log(f) = lg + log1p(f·inv - 1).
var expTab [1 << expTabBits]struct{ inv, lg float64 }

func init() {
	for j := range expTab {
		inv := 1 / (1 + (float64(j)+0.5)/(1<<expTabBits))
		expTab[j].inv = inv
		expTab[j].lg = -math.Log(inv)
	}
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
