// Package rng provides a deterministic, seedable pseudo-random number
// generator for reproducible initial conditions and tests.
//
// The generator is xoshiro256**, seeded through splitmix64, following
// Blackman & Vigna. It is small, fast, and has no global state: every
// simulation component owns its own stream, so results are bit-exact
// regardless of evaluation order or parallelism.
package rng

import "math"

// Source is a deterministic random stream.
type Source struct {
	s [4]uint64

	// cached spare Gaussian deviate (Box-Muller polar generates pairs)
	haveSpare bool
	spare     float64
}

// New returns a Source seeded from the given 64-bit seed. Different
// seeds give statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	// splitmix64 expansion of the seed into the xoshiro state, as
	// recommended by the xoshiro authors.
	x := seed
	for i := range src.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce that, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform deviate in [0, 1).
func (r *Source) Float64() float64 {
	// Take the top 53 bits for a uniformly spaced double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform deviate in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	m := t & mask
	c = t >> 32
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Normal returns a standard Gaussian deviate (mean 0, variance 1) via
// the Marsaglia polar method.
func (r *Source) Normal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.haveSpare = true
			return u * f
		}
	}
}

// NormalPair returns two independent standard Gaussian deviates.
// Useful when filling Fourier modes (real and imaginary parts).
func (r *Source) NormalPair() (float64, float64) {
	return r.Normal(), r.Normal()
}

// UnitSphere returns a point uniformly distributed on the unit sphere.
func (r *Source) UnitSphere() (x, y, z float64) {
	for {
		x = 2*r.Float64() - 1
		y = 2*r.Float64() - 1
		z = 2*r.Float64() - 1
		s := x*x + y*y + z*z
		if s > 0 && s <= 1 {
			inv := 1 / math.Sqrt(s)
			return x * inv, y * inv, z * inv
		}
	}
}

// InBall returns a point uniformly distributed in the unit ball.
func (r *Source) InBall() (x, y, z float64) {
	for {
		x = 2*r.Float64() - 1
		y = 2*r.Float64() - 1
		z = 2*r.Float64() - 1
		if x*x+y*y+z*z <= 1 {
			return x, y, z
		}
	}
}
