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

// PermScratch holds the reusable gather buffers of ApplyOrderScratch:
// one spare array per element type. After each call every spare is an
// array the system held before, so a scratch reused across steps makes
// the permutation allocation-free.
type PermScratch struct {
	v3   []vec.V3
	f64  []float64
	i64  []int64
	seen []bool
}

// ApplyOrderScratch permutes the system so that new position k holds
// previous particle order[k]; order must be a permutation of [0, N).
// It gathers one array at a time into the spare of its type (grown only
// when too small) and swaps the spare with the array it replaced, so
// the scratch holds one array of each type however many arrays it
// permutes.
func (s *System) ApplyOrderScratch(order []int, scr *PermScratch) error {
	n := s.N()
	if len(order) != n {
		return fmt.Errorf("nbody: order length %d != N %d", len(order), n)
	}
	if cap(scr.seen) < n {
		scr.seen = make([]bool, n)
	}
	seen := scr.seen[:n]
	for i := range seen {
		seen[i] = false
	}
	for _, idx := range order {
		if idx < 0 || idx >= n || seen[idx] {
			return fmt.Errorf("nbody: order is not a permutation")
		}
		seen[idx] = true
	}
	for _, a := range [...]*[]vec.V3{&s.Pos, &s.Vel, &s.Acc} {
		gather(order, a, &scr.v3)
	}
	for _, a := range [...]*[]float64{&s.Mass, &s.Pot} {
		gather(order, a, &scr.f64)
	}
	gather(order, &s.ID, &scr.i64)
	return nil
}

// gather writes (*a)[order[k]] to (*spare)[k] for every k, growing the
// spare to len(order) if it is shorter, and swaps the two arrays.
func gather[T any](order []int, a, spare *[]T) {
	if cap(*spare) < len(order) {
		*spare = make([]T, len(order))
	}
	dst, src := (*spare)[:len(order)], *a
	for k, idx := range order {
		dst[k] = src[idx]
	}
	*a, *spare = dst, src
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
