// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the experiments. Reproducibility matters more
// than cryptographic quality here: every experiment in the paper reproduction
// is seeded, so repeated runs produce identical workloads.
//
// Two generators are provided: SplitMix64, used for seeding and cheap
// stateless mixing, and Xoshiro256++, the workhorse generator with a 256-bit
// state and good statistical properties. Both are safe to copy by value;
// neither is safe for concurrent use. Use Split to derive independent
// per-goroutine streams.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the 64-bit finalizer-based generator from Steele et al.
// It is primarily used to expand a single seed into the larger state of
// Xoshiro256++, and to hash integers into well-mixed values.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality
// stateless integer hash: distinct inputs produce well-distributed outputs.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro is a xoshiro256++ generator. The zero value is invalid; construct
// with New.
type Xoshiro struct {
	s0, s1, s2, s3 uint64
}

// New returns a Xoshiro seeded deterministically from seed. Different seeds
// yield statistically independent streams.
func New(seed uint64) *Xoshiro {
	// Small enough to inline, so a caller that keeps the generator local
	// keeps it on its stack.
	x := seeded(seed)
	return &x
}

// seeded returns the generator New(seed) points to, by value.
func seeded(seed uint64) Xoshiro {
	sm := SplitMix64{state: seed}
	x := Xoshiro{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// Avoid the (astronomically unlikely) all-zero state.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
	return x
}

// Split derives a new, independent generator from r. The derived stream is a
// deterministic function of r's current state, and r is advanced, so
// successive Splits yield distinct streams. Use this to hand one generator
// to each goroutine.
func (r *Xoshiro) Split() *Xoshiro {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Xoshiro) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint32 returns the next pseudo-random 32-bit value.
func (r *Xoshiro) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Xoshiro) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method with a single 128-bit multiply; the rejection loop
	// runs less than once on average.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Xoshiro) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform value in [0, 1).
func (r *Xoshiro) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *Xoshiro) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the swap function,
// via the Fisher-Yates algorithm.
func (r *Xoshiro) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed value with mean 0 and stddev 1,
// using the polar (Marsaglia) method.
func (r *Xoshiro) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
