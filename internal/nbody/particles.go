// Package nbody provides the particle-system representation used by
// the treecode, reference direct-summation gravity, standard model
// generators (Plummer sphere, uniform sphere, cold collapse, two-body)
// and diagnostics (kinetic/potential energy, centre of mass).
//
// Particles are stored in structure-of-arrays layout: the tree build,
// the GRAPE host interface and the integrator all stream over single
// coordinate arrays, and SoA keeps those loops cache-friendly — the
// same reason the real GRAPE host library works on flat arrays.
package nbody

import (
	"fmt"
	"math"

	"repro/internal/morton"
	"repro/internal/vec"
)

// System is a collection of gravitating particles in SoA layout.
type System struct {
	// Pos, Vel, Acc hold positions, velocities, accelerations.
	Pos []vec.V3
	Vel []vec.V3
	Acc []vec.V3
	// Mass holds particle masses.
	Mass []float64
	// Pot holds specific potentials (filled by force engines that
	// compute it; otherwise zero).
	Pot []float64
	// ID holds stable particle identifiers, preserved across the
	// reorderings done by the tree build.
	ID []int64
}

// New allocates a system of n particles with zeroed state.
func New(n int) *System {
	s := &System{
		Pos:  make([]vec.V3, n),
		Vel:  make([]vec.V3, n),
		Acc:  make([]vec.V3, n),
		Mass: make([]float64, n),
		Pot:  make([]float64, n),
		ID:   make([]int64, n),
	}
	for i := range s.ID {
		s.ID[i] = int64(i)
	}
	return s
}

// N returns the particle count.
func (s *System) N() int { return len(s.Pos) }

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{
		Pos:  append([]vec.V3(nil), s.Pos...),
		Vel:  append([]vec.V3(nil), s.Vel...),
		Acc:  append([]vec.V3(nil), s.Acc...),
		Mass: append([]float64(nil), s.Mass...),
		Pot:  append([]float64(nil), s.Pot...),
		ID:   append([]int64(nil), s.ID...),
	}
	return c
}

// PermScratch holds the reusable visit marks of ApplyOrderScratch, one
// byte per particle: the permutation moves the particles in place, so
// a scratch reused across steps makes it allocation-free with no spare
// particle array.
type PermScratch struct {
	seen []bool
}

// ApplyOrderScratch permutes the system so that new position k holds
// previous particle order[k]; order must be a permutation of [0, N).
// keys, one per particle, move with the particles. It checks the whole
// order before it moves anything, so a rejected order leaves every
// array untouched. The particles move in place: each cycle of order is
// followed once, carrying Pos, Vel, Acc, Mass, Pot, ID and the key
// together, and a fixed point costs one compare.
func (s *System) ApplyOrderScratch(order []int32, keys []morton.Key, scr *PermScratch) error {
	n := s.N()
	if len(order) != n || len(keys) != n {
		return fmt.Errorf("nbody: order length %d and %d keys for N %d", len(order), len(keys), n)
	}
	if cap(scr.seen) < n {
		scr.seen = make([]bool, n)
	}
	seen := scr.seen[:n]
	clear(seen)
	for _, idx := range order {
		if idx < 0 || int(idx) >= n || seen[idx] {
			return fmt.Errorf("nbody: order is not a permutation")
		}
		seen[idx] = true
	}
	// Every mark is now set; following a cycle clears the marks of the
	// positions it fills.
	pos, vel, acc, mass, pot, id := s.Pos, s.Vel, s.Acc, s.Mass, s.Pot, s.ID
	for i := range order {
		if !seen[i] {
			continue
		}
		seen[i] = false
		j := int(order[i])
		if j == i {
			continue
		}
		p, v, a, m, u, d, k := pos[i], vel[i], acc[i], mass[i], pot[i], id[i], keys[i]
		dst := i
		for j != i {
			pos[dst], vel[dst], acc[dst], mass[dst], pot[dst], id[dst], keys[dst] =
				pos[j], vel[j], acc[j], mass[j], pot[j], id[j], keys[j]
			seen[j] = false
			dst, j = j, int(order[j])
		}
		pos[dst], vel[dst], acc[dst], mass[dst], pot[dst], id[dst], keys[dst] = p, v, a, m, u, d, k
	}
	return nil
}

// Bounds returns the axis-aligned bounding box of all positions.
func (s *System) Bounds() vec.Box {
	b := vec.EmptyBox()
	for _, p := range s.Pos {
		b = b.Extend(p)
	}
	return b
}

// TotalMass returns the sum of particle masses.
func (s *System) TotalMass() float64 {
	var m float64
	for _, mi := range s.Mass {
		m += mi
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position.
func (s *System) CenterOfMass() vec.V3 {
	var com vec.V3
	var m float64
	for i, p := range s.Pos {
		com = com.MulAdd(s.Mass[i], p)
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.Zero
	}
	return com.Scale(1 / m)
}

// MeanVelocity returns the mass-weighted mean velocity.
func (s *System) MeanVelocity() vec.V3 {
	var mv vec.V3
	var m float64
	for i, v := range s.Vel {
		mv = mv.MulAdd(s.Mass[i], v)
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.Zero
	}
	return mv.Scale(1 / m)
}

// KineticEnergy returns Σ ½ m v².
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i, v := range s.Vel {
		ke += 0.5 * s.Mass[i] * v.Norm2()
	}
	return ke
}

// Recenter shifts positions and velocities so the centre of mass is at
// the origin and at rest.
func (s *System) Recenter() {
	com := s.CenterOfMass()
	mv := s.MeanVelocity()
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Sub(com)
		s.Vel[i] = s.Vel[i].Sub(mv)
	}
}

// Validate checks structural invariants: equal array lengths, finite
// positions and velocities, finite positive masses.
func (s *System) Validate() error {
	n := s.N()
	if len(s.Vel) != n || len(s.Acc) != n || len(s.Mass) != n || len(s.Pot) != n || len(s.ID) != n {
		return fmt.Errorf("nbody: inconsistent array lengths")
	}
	for i := 0; i < n; i++ {
		if !s.Pos[i].IsFinite() {
			return fmt.Errorf("nbody: particle %d has non-finite position", i)
		}
		if !s.Vel[i].IsFinite() {
			return fmt.Errorf("nbody: particle %d has non-finite velocity", i)
		}
		switch m := s.Mass[i]; {
		case math.IsNaN(m) || math.IsInf(m, 0):
			return fmt.Errorf("nbody: particle %d has non-finite mass %v", i, m)
		case m <= 0:
			return fmt.Errorf("nbody: particle %d has non-positive mass %v", i, m)
		}
	}
	return nil
}
