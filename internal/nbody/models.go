package nbody

import (
	"math"

	"repro/internal/rng"
	"repro/internal/vec"
)

// Plummer samples an N-particle Plummer sphere of total mass m and
// scale radius a in virial equilibrium (Aarseth, Hénon & Wielen 1974),
// in units with gravitational constant g. Positions are truncated at
// ten scale radii. The model is recentred so the centre of mass is at
// the origin and at rest.
func Plummer(n int, m, a, g float64, src *rng.Source) *System {
	s := New(n)
	mi := m / float64(n)
	for i := 0; i < n; i++ {
		s.Mass[i] = mi
		// Radius from the inverse cumulative mass profile.
		var r float64
		for {
			x := src.Float64()
			if x == 0 {
				continue
			}
			r = a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
			if r < 10*a {
				break
			}
		}
		ux, uy, uz := src.UnitSphere()
		s.Pos[i] = vec.V3{X: r * ux, Y: r * uy, Z: r * uz}

		// Velocity from the distribution function g(q) = q²(1-q²)^{7/2}
		// by von Neumann rejection (q = v/v_esc).
		var q float64
		for {
			x := src.Float64()
			y := 0.1 * src.Float64()
			if y < x*x*math.Pow(1-x*x, 3.5) {
				q = x
				break
			}
		}
		vesc := math.Sqrt(2*g*m) * math.Pow(r*r+a*a, -0.25)
		v := q * vesc
		vx, vy, vz := src.UnitSphere()
		s.Vel[i] = vec.V3{X: v * vx, Y: v * vy, Z: v * vz}
	}
	s.Recenter()
	return s
}

// UniformSphere samples n particles uniformly in a sphere of radius r
// with total mass m and zero velocities (cold collapse initial
// conditions).
func UniformSphere(n int, m, r float64, src *rng.Source) *System {
	s := New(n)
	mi := m / float64(n)
	for i := 0; i < n; i++ {
		s.Mass[i] = mi
		x, y, z := src.InBall()
		s.Pos[i] = vec.V3{X: r * x, Y: r * y, Z: r * z}
	}
	return s
}

// TwoBody builds a two-particle system with masses m1, m2 on a circular
// orbit of separation d about their barycentre, in units with
// gravitational constant g. It is the Kepler reference for integrator
// tests.
func TwoBody(m1, m2, d, g float64) *System {
	s := New(2)
	s.Mass[0], s.Mass[1] = m1, m2
	mtot := m1 + m2
	// Positions about the barycentre.
	s.Pos[0] = vec.V3{X: -d * m2 / mtot}
	s.Pos[1] = vec.V3{X: d * m1 / mtot}
	// Circular orbital speed: v_rel = sqrt(G M / d), split by mass ratio.
	vrel := math.Sqrt(g * mtot / d)
	s.Vel[0] = vec.V3{Y: -vrel * m2 / mtot}
	s.Vel[1] = vec.V3{Y: vrel * m1 / mtot}
	return s
}

// Merge returns a new system containing all particles of a followed by
// all particles of b, with b's positions and velocities offset.
// It implements the two-galaxy collision setup.
func Merge(a, b *System, dPos, dVel vec.V3) *System {
	n := a.N() + b.N()
	s := New(n)
	for i := 0; i < a.N(); i++ {
		s.Pos[i] = a.Pos[i]
		s.Vel[i] = a.Vel[i]
		s.Mass[i] = a.Mass[i]
	}
	for i := 0; i < b.N(); i++ {
		j := a.N() + i
		s.Pos[j] = b.Pos[i].Add(dPos)
		s.Vel[j] = b.Vel[i].Add(dVel)
		s.Mass[j] = b.Mass[i]
	}
	for i := range s.ID {
		s.ID[i] = int64(i)
	}
	return s
}
