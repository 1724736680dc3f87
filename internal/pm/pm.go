// Package pm implements a particle-mesh (PM) gravity solver with
// isolated (vacuum) boundary conditions: cloud-in-cell mass deposit,
// FFT convolution with the open-space Green's function via
// Hockney-Eastwood zero padding, finite-difference gradients, and
// cloud-in-cell force interpolation.
//
// PM is the classical fast alternative to the treecode and serves as
// the cross-check baseline: the paper's lineage of Gordon Bell entries
// (Warren & Salmon) benchmarked tree codes against mesh codes, and a
// downstream user of this library gets the comparison for free. PM
// forces are soft below the mesh scale, so the comparison tests match
// tree softening to the cell size.
package pm

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/nbody"
	"repro/internal/vec"
)

// Solver is a PM gravity solver over a fixed cubic region. Create one
// with NewSolver and reuse it across steps; the Green's function is
// prepared once.
type Solver struct {
	// N is the mesh size per dimension (power of two).
	N int
	// Box is the solved region; particles outside contribute nothing
	// and feel nothing.
	Box vec.Box
	// G is the gravitational constant.
	G float64

	cell    float64
	rho     *fft.Grid3 // 2N-padded density / potential workspace
	kernel  []complex128
	phi     []float64 // N³ potential mesh
	gridDim int       // 2N
}

// NewSolver builds a solver for the given cubic box and mesh size.
func NewSolver(n int, box vec.Box, g float64) (*Solver, error) {
	if !fft.IsPow2(n) {
		return nil, fmt.Errorf("pm: mesh size %d is not a power of two", n)
	}
	size := box.Size()
	if size.X <= 0 || math.Abs(size.X-size.Y) > 1e-9*size.X || math.Abs(size.X-size.Z) > 1e-9*size.X {
		return nil, fmt.Errorf("pm: box must be cubic and non-degenerate")
	}
	s := &Solver{N: n, Box: box, G: g, cell: size.X / float64(n), gridDim: 2 * n}
	grid, err := fft.NewGrid3(s.gridDim)
	if err != nil {
		return nil, err
	}
	s.rho = grid
	s.phi = make([]float64, n*n*n)
	s.buildKernel()
	return s, nil
}

// Cell returns the mesh spacing (the effective softening scale of PM
// forces).
func (s *Solver) Cell() float64 { return s.cell }

// buildKernel prepares the FFT of the open-space Green's function
// -1/(4π r) sampled on the doubled grid with wrap-around symmetry
// (Hockney & Eastwood). The r=0 value uses the standard plateau
// -1/(4π·0.25·h) calibrated so a single particle's self-cell potential
// stays finite.
func (s *Solver) buildKernel() {
	d := s.gridDim
	k, _ := fft.NewGrid3(d)
	for ix := 0; ix < d; ix++ {
		rx := float64(minWrap(ix, d)) * s.cell
		for iy := 0; iy < d; iy++ {
			ry := float64(minWrap(iy, d)) * s.cell
			for iz := 0; iz < d; iz++ {
				rz := float64(minWrap(iz, d)) * s.cell
				r := math.Sqrt(rx*rx + ry*ry + rz*rz)
				var green float64
				if r == 0 {
					green = -1 / (4 * math.Pi * 0.25 * s.cell)
				} else {
					green = -1 / (4 * math.Pi * r)
				}
				k.Set(ix, iy, iz, complex(green, 0))
			}
		}
	}
	k.Forward()
	s.kernel = k.Data
}

// minWrap maps grid index i on a d-grid to the signed distance index in
// [-d/2, d/2).
func minWrap(i, d int) int {
	if i < d/2 {
		return i
	}
	return i - d
}

// Solve computes the potential mesh from the system's particles and
// stores it; Accelerations interpolates forces afterwards. Particles
// outside the box are ignored (returned count reports how many were
// deposited).
func (s *Solver) Solve(sys *nbody.System) (deposited int, err error) {
	n := s.N
	d := s.gridDim
	// Zero workspace.
	for i := range s.rho.Data {
		s.rho.Data[i] = 0
	}
	// CIC deposit into the first octant of the padded grid.
	inv := 1 / s.cell
	vol := s.cell * s.cell * s.cell
	for p := 0; p < sys.N(); p++ {
		x := (sys.Pos[p].X - s.Box.Min.X) * inv
		y := (sys.Pos[p].Y - s.Box.Min.Y) * inv
		z := (sys.Pos[p].Z - s.Box.Min.Z) * inv
		// Centre the cloud on the particle: CIC spans the 8 nearest
		// cell centres; use node-centred convention.
		ix, fx := cicSplit(x)
		iy, fy := cicSplit(y)
		iz, fz := cicSplit(z)
		if ix < 0 || ix+1 >= n || iy < 0 || iy+1 >= n || iz < 0 || iz+1 >= n {
			continue // outside (or touching the far faces): skip
		}
		deposited++
		m := sys.Mass[p] / vol
		for c := 0; c < 8; c++ {
			jx, jy, jz := ix+(c&1), iy+(c>>1&1), iz+(c>>2&1)
			w := pick(fx, c&1) * pick(fy, c>>1&1) * pick(fz, c>>2&1)
			idx := (jx*d+jy)*d + jz
			s.rho.Data[idx] += complex(m*w, 0)
		}
	}

	// Convolve: FFT, multiply by kernel, inverse.
	s.rho.Forward()
	for i := range s.rho.Data {
		s.rho.Data[i] *= s.kernel[i]
	}
	s.rho.Inverse()

	// Extract potential: φ = 4πG · (solution of ∇²φ/(4πG) = ρ), i.e.
	// φ(x) = G ∫ ρ(x')·(-1/|x-x'|) — our kernel already carries the
	// -1/(4π r) normalisation, so multiply by 4πG·cell³ (the
	// convolution sum approximates the integral with measure h³).
	scale := 4 * math.Pi * s.G * vol
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				s.phi[(ix*n+iy)*n+iz] = scale * real(s.rho.At(ix, iy, iz))
			}
		}
	}
	return deposited, nil
}

// cicSplit returns the lower node index and fractional offset of a
// node-centred cloud-in-cell assignment.
func cicSplit(x float64) (int, float64) {
	f := math.Floor(x)
	return int(f), x - f
}

// pick returns (1-f) for bit 0, f for bit 1.
func pick(f float64, bit int) float64 {
	if bit == 0 {
		return 1 - f
	}
	return f
}

// Potential returns the mesh potential at node (ix, iy, iz).
func (s *Solver) Potential(ix, iy, iz int) float64 {
	return s.phi[(ix*s.N+iy)*s.N+iz]
}

// Accelerations interpolates mesh forces back onto the particles
// (two-point centred difference of the potential, CIC-weighted),
// overwriting sys.Acc and sys.Pot. Particles outside the valid region
// get zero force.
func (s *Solver) Accelerations(sys *nbody.System) {
	n := s.N
	inv := 1 / s.cell
	grad := 1 / (2 * s.cell)
	at := func(ix, iy, iz int) float64 {
		if ix < 0 {
			ix = 0
		}
		if iy < 0 {
			iy = 0
		}
		if iz < 0 {
			iz = 0
		}
		if ix >= n {
			ix = n - 1
		}
		if iy >= n {
			iy = n - 1
		}
		if iz >= n {
			iz = n - 1
		}
		return s.phi[(ix*n+iy)*n+iz]
	}
	for p := 0; p < sys.N(); p++ {
		x := (sys.Pos[p].X - s.Box.Min.X) * inv
		y := (sys.Pos[p].Y - s.Box.Min.Y) * inv
		z := (sys.Pos[p].Z - s.Box.Min.Z) * inv
		ix, fx := cicSplit(x)
		iy, fy := cicSplit(y)
		iz, fz := cicSplit(z)
		if ix < 1 || ix+2 >= n || iy < 1 || iy+2 >= n || iz < 1 || iz+2 >= n {
			sys.Acc[p] = vec.Zero
			sys.Pot[p] = 0
			continue
		}
		var ax, ay, az, pot float64
		for c := 0; c < 8; c++ {
			jx, jy, jz := ix+(c&1), iy+(c>>1&1), iz+(c>>2&1)
			w := pick(fx, c&1) * pick(fy, c>>1&1) * pick(fz, c>>2&1)
			ax -= w * (at(jx+1, jy, jz) - at(jx-1, jy, jz)) * grad
			ay -= w * (at(jx, jy+1, jz) - at(jx, jy-1, jz)) * grad
			az -= w * (at(jx, jy, jz+1) - at(jx, jy, jz-1)) * grad
			pot += w * at(jx, jy, jz)
		}
		sys.Acc[p] = vec.V3{X: ax, Y: ay, Z: az}
		// The mesh potential includes the particle's own cloud
		// (self-energy); subtract it so Pot means "potential due to the
		// others", matching the direct-sum and tree conventions.
		sys.Pot[p] = pot - s.selfPotential(fx, fy, fz, sys.Mass[p])
	}
}

// selfPotential returns the contribution of a particle's own CIC cloud
// to the interpolated potential at its position: the double sum over
// its 8 deposit nodes and 8 read nodes through the Green's function,
// which depends only on the in-cell offsets and the cell size.
func (s *Solver) selfPotential(fx, fy, fz, m float64) float64 {
	// Inverse distances between nodes of the unit cell, in cell units:
	// coincident nodes use the kernel's r=0 plateau 1/0.25.
	invDist := func(dx, dy, dz int) float64 {
		d2 := dx*dx + dy*dy + dz*dz
		if d2 == 0 {
			return 4 // 1/0.25
		}
		return 1 / math.Sqrt(float64(d2))
	}
	var sum float64
	for a := 0; a < 8; a++ {
		wa := pick(fx, a&1) * pick(fy, a>>1&1) * pick(fz, a>>2&1)
		if wa == 0 {
			continue
		}
		for b := 0; b < 8; b++ {
			wb := pick(fx, b&1) * pick(fy, b>>1&1) * pick(fz, b>>2&1)
			if wb == 0 {
				continue
			}
			sum += wa * wb * invDist((a&1)-(b&1), (a>>1&1)-(b>>1&1), (a>>2&1)-(b>>2&1))
		}
	}
	return -s.G * m / s.cell * sum
}

// Forces runs Solve and Accelerations in one call.
func (s *Solver) Forces(sys *nbody.System) error {
	if _, err := s.Solve(sys); err != nil {
		return err
	}
	s.Accelerations(sys)
	return nil
}
