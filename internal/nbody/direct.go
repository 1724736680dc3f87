package nbody

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/vec"
)

// DirectForces computes softened gravitational accelerations and
// specific potentials for every particle by exact O(N²) summation in
// float64. g is the gravitational constant, eps the Plummer softening
// length. This is the accuracy reference against which both the tree
// approximation and the GRAPE-5 arithmetic are measured, and the
// baseline algorithm for the O(N²)-vs-O(N log N) comparisons.
//
// The outer loop is parallelised across GOMAXPROCS workers.
func DirectForces(s *System, g, eps float64) {
	n := s.N()
	eps2 := eps * eps
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				var ax, ay, az, pot float64
				pi := s.Pos[i]
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					dx := s.Pos[j].X - pi.X
					dy := s.Pos[j].Y - pi.Y
					dz := s.Pos[j].Z - pi.Z
					r2 := dx*dx + dy*dy + dz*dz + eps2
					inv := 1 / math.Sqrt(r2)
					inv3 := inv / r2
					mj := s.Mass[j]
					ax += mj * inv3 * dx
					ay += mj * inv3 * dy
					az += mj * inv3 * dz
					pot -= mj * inv
				}
				s.Acc[i] = vec.V3{X: g * ax, Y: g * ay, Z: g * az}
				s.Pot[i] = g * pot
			}
		}(lo, hi)
	}
	wg.Wait()
}

// PotentialEnergy returns the exact total gravitational potential
// energy, -G Σ_{i<j} m_i m_j / sqrt(r² + eps²), by direct summation.
func PotentialEnergy(s *System, g, eps float64) float64 {
	n := s.N()
	eps2 := eps * eps
	var pe float64
	for i := 0; i < n; i++ {
		pi := s.Pos[i]
		mi := s.Mass[i]
		for j := i + 1; j < n; j++ {
			dx := s.Pos[j].X - pi.X
			dy := s.Pos[j].Y - pi.Y
			dz := s.Pos[j].Z - pi.Z
			r2 := dx*dx + dy*dy + dz*dz + eps2
			pe -= mi * s.Mass[j] / math.Sqrt(r2)
		}
	}
	return g * pe
}

// PotentialEnergyFromPot returns the total potential energy from the
// per-particle specific potentials filled in by a force engine:
// U = ½ Σ m_i Pot_i. Valid when Pot holds Σ_j -G m_j/r_ij.
func PotentialEnergyFromPot(s *System) float64 {
	var pe float64
	for i := range s.Pot {
		pe += 0.5 * s.Mass[i] * s.Pot[i]
	}
	return pe
}
