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

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Source) Exp(mean float64) float64 {
	u := r.Float64()
	// Avoid log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// ExpDur returns an exponentially distributed duration (ns) with mean mean.
// The result is at least 1 so callers can use it directly as a service time.
func (r *Source) ExpDur(mean int64) int64 {
	d := int64(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
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
