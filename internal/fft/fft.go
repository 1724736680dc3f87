// Package fft implements the fast Fourier transforms needed by the
// cosmological initial-condition generator: an iterative radix-2
// complex FFT, multidimensional transforms over 3-D grids, and helpers
// for Hermitian-symmetric (real-field) mode filling.
//
// Conventions: Forward computes X[k] = Σ_n x[n] exp(-2πi kn/N) with no
// normalisation; Inverse computes x[n] = (1/N) Σ_k X[k] exp(+2πi kn/N),
// so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// twiddleCache caches the complex roots of unity for a given size so
// repeated transforms of the same length avoid recomputing sincos.
type twiddleCache struct {
	n int
	w []complex128 // w[j] = exp(-2πi j / n), j in [0, n/2)
}

func newTwiddles(n int) *twiddleCache {
	w := make([]complex128, n/2)
	for j := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, s)
	}
	return &twiddleCache{n: n, w: w}
}

// Plan holds precomputed twiddle factors for transforms of length N.
// A Plan is safe for concurrent use once constructed.
type Plan struct {
	n  int
	tw *twiddleCache
}

// NewPlan creates a plan for transforms of length n. n must be a
// positive power of two.
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: length %d is not a positive power of two", n)
	}
	return &Plan{n: n, tw: newTwiddles(n)}, nil
}

// Forward transforms x in place (length must equal the plan length).
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Forward length %d != plan length %d", len(x), p.n))
	}
	p.transform(x, false)
}

// Inverse transforms x in place, including the 1/N normalisation.
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Inverse length %d != plan length %d", len(x), p.n))
	}
	p.transform(x, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// transform is the iterative Cooley-Tukey decimation-in-time FFT.
func (p *Plan) transform(x []complex128, inverse bool) {
	n := p.n
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size // twiddle stride into the length-n table
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.tw.w[tw]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}
