package fft

import "fmt"

// Grid3 is an n×n×n complex grid stored contiguously with index
// (ix, iy, iz) -> (ix*n + iy)*n + iz. It supports in-place 3-D FFTs.
type Grid3 struct {
	N    int
	Data []complex128
	plan *Plan
}

// NewGrid3 allocates an n³ grid. n must be a power of two.
func NewGrid3(n int) (*Grid3, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: grid size %d is not a power of two", n)
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	return &Grid3{N: n, Data: make([]complex128, n*n*n), plan: p}, nil
}

// Idx returns the linear index of (ix, iy, iz).
func (g *Grid3) Idx(ix, iy, iz int) int { return (ix*g.N+iy)*g.N + iz }

// At returns the value at (ix, iy, iz).
func (g *Grid3) At(ix, iy, iz int) complex128 { return g.Data[g.Idx(ix, iy, iz)] }

// Set stores v at (ix, iy, iz).
func (g *Grid3) Set(ix, iy, iz int, v complex128) { g.Data[g.Idx(ix, iy, iz)] = v }

// Forward runs the 3-D forward transform in place.
func (g *Grid3) Forward() { g.transform3(false) }

// Inverse runs the 3-D inverse transform in place (normalised by 1/N³).
func (g *Grid3) Inverse() { g.transform3(true) }

func (g *Grid3) transform3(inverse bool) {
	n := g.N
	run := func(x []complex128) {
		if inverse {
			g.plan.Inverse(x)
		} else {
			g.plan.Forward(x)
		}
	}
	// Z lines are contiguous.
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			base := (ix*n + iy) * n
			run(g.Data[base : base+n])
		}
	}
	// Y lines: stride n.
	line := make([]complex128, n)
	for ix := 0; ix < n; ix++ {
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				line[iy] = g.Data[(ix*n+iy)*n+iz]
			}
			run(line)
			for iy := 0; iy < n; iy++ {
				g.Data[(ix*n+iy)*n+iz] = line[iy]
			}
		}
	}
	// X lines: stride n².
	for iy := 0; iy < n; iy++ {
		for iz := 0; iz < n; iz++ {
			for ix := 0; ix < n; ix++ {
				line[ix] = g.Data[(ix*n+iy)*n+iz]
			}
			run(line)
			for ix := 0; ix < n; ix++ {
				g.Data[(ix*n+iy)*n+iz] = line[ix]
			}
		}
	}
}

// FreqIndex maps a grid index i in [0, n) to its signed frequency index
// in [-n/2, n/2): 0, 1, ..., n/2-1, -n/2, ..., -1.
func FreqIndex(i, n int) int {
	if i < n/2 {
		return i
	}
	return i - n
}

// ConjIndex returns the index holding the conjugate mode of i (that is,
// -k mod n).
func ConjIndex(i, n int) int {
	if i == 0 {
		return 0
	}
	return n - i
}

// EnforceHermitian makes the grid exactly Hermitian-symmetric,
// F(-k) = conj(F(k)), by averaging each mode with the conjugate of its
// partner. Self-conjugate modes have their imaginary parts dropped.
// After this the inverse transform yields a real field to rounding
// error.
func (g *Grid3) EnforceHermitian() {
	n := g.N
	for ix := 0; ix < n; ix++ {
		cx := ConjIndex(ix, n)
		for iy := 0; iy < n; iy++ {
			cy := ConjIndex(iy, n)
			for iz := 0; iz < n; iz++ {
				cz := ConjIndex(iz, n)
				a := g.Idx(ix, iy, iz)
				b := g.Idx(cx, cy, cz)
				if a == b {
					g.Data[a] = complex(real(g.Data[a]), 0)
					continue
				}
				if a < b {
					va := g.Data[a]
					vb := g.Data[b]
					avg := (va + complex(real(vb), -imag(vb))) * 0.5
					g.Data[a] = avg
					g.Data[b] = complex(real(avg), -imag(avg))
				}
			}
		}
	}
}

// MaxImag returns the largest |imaginary part| on the grid; a real
// field after an inverse transform should have this near zero.
func (g *Grid3) MaxImag() float64 {
	m := 0.0
	for _, v := range g.Data {
		im := imag(v)
		if im < 0 {
			im = -im
		}
		if im > m {
			m = im
		}
	}
	return m
}
