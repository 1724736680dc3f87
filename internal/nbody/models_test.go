package nbody

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

func TestPlummerBasics(t *testing.T) {
	const n = 2000
	const m, a, g = 1.0, 1.0, 1.0
	s := Plummer(n, m, a, g, rng.New(42))
	if s.N() != n {
		t.Fatalf("N = %d", s.N())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.TotalMass()-m) > 1e-12 {
		t.Errorf("total mass = %v", s.TotalMass())
	}
	if s.CenterOfMass().Norm() > 1e-12 {
		t.Errorf("COM = %v", s.CenterOfMass())
	}
	if s.MeanVelocity().Norm() > 1e-12 {
		t.Errorf("mean velocity = %v", s.MeanVelocity())
	}
}

func TestPlummerVirialEquilibrium(t *testing.T) {
	// For a Plummer model in equilibrium, 2T + U ≈ 0.
	const n = 4000
	s := Plummer(n, 1, 1, 1, rng.New(7))
	ke := s.KineticEnergy()
	pe := PotentialEnergy(s, 1, 0)
	virial := (2*ke + pe) / math.Abs(pe)
	if math.Abs(virial) > 0.08 {
		t.Errorf("virial ratio (2T+U)/|U| = %v, want ~0 (sampling tolerance 8%%)", virial)
	}
	// Total energy of a Plummer sphere is -3πGM²/(64a).
	e := ke + pe
	want := -3 * math.Pi / 64
	if math.Abs(e-want)/math.Abs(want) > 0.1 {
		t.Errorf("total energy = %v, analytic %v", e, want)
	}
}

func TestPlummerHalfMassRadius(t *testing.T) {
	// The Plummer half-mass radius is a/sqrt(2^{2/3}-1) ≈ 1.3048 a.
	const n = 8000
	s := Plummer(n, 1, 1, 1, rng.New(99))
	radii := make([]float64, n)
	for i, p := range s.Pos {
		radii[i] = p.Norm()
	}
	// Median radius.
	count := 0
	want := 1.3048
	for _, r := range radii {
		if r < want {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("mass fraction inside analytic half-mass radius = %v, want ~0.5", frac)
	}
}

func TestUniformSphere(t *testing.T) {
	const n = 5000
	s := UniformSphere(n, 2, 3, rng.New(5))
	if math.Abs(s.TotalMass()-2) > 1e-12 {
		t.Errorf("mass = %v", s.TotalMass())
	}
	for i, p := range s.Pos {
		if p.Norm() > 3 {
			t.Fatalf("particle %d outside sphere: %v", i, p.Norm())
		}
		if s.Vel[i] != vec.Zero {
			t.Fatalf("particle %d not cold", i)
		}
	}
	// Uniformity: fraction within half radius should be 1/8.
	in := 0
	for _, p := range s.Pos {
		if p.Norm() < 1.5 {
			in++
		}
	}
	if frac := float64(in) / n; math.Abs(frac-0.125) > 0.02 {
		t.Errorf("inner fraction = %v, want 0.125", frac)
	}
}

func TestTwoBodyCircular(t *testing.T) {
	const g = 1.0
	s := TwoBody(3, 1, 2, g)
	// Barycentre at origin, at rest.
	if s.CenterOfMass().Norm() > 1e-14 {
		t.Errorf("COM = %v", s.CenterOfMass())
	}
	if s.MeanVelocity().Norm() > 1e-14 {
		t.Errorf("mean vel = %v", s.MeanVelocity())
	}
	// Centripetal balance: a = v²/r for each body.
	DirectForces(s, g, 0)
	for i := 0; i < 2; i++ {
		r := s.Pos[i].Norm()
		want := s.Vel[i].Norm2() / r
		got := s.Acc[i].Norm()
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("body %d: |a| = %v, v²/r = %v", i, got, want)
		}
	}
}

func TestMerge(t *testing.T) {
	a := UniformSphere(10, 1, 1, rng.New(1))
	b := UniformSphere(20, 2, 1, rng.New(2))
	m := Merge(a, b, vec.V3{X: 10}, vec.V3{X: -1})
	if m.N() != 30 {
		t.Fatalf("merged N = %d", m.N())
	}
	if math.Abs(m.TotalMass()-3) > 1e-12 {
		t.Errorf("merged mass = %v", m.TotalMass())
	}
	// Second system must be offset.
	if m.Pos[10].Sub(b.Pos[0]).Sub(vec.V3{X: 10}).Norm() > 1e-14 {
		t.Error("offset not applied")
	}
	if m.Vel[10].Sub(b.Vel[0]).Sub(vec.V3{X: -1}).Norm() > 1e-14 {
		t.Error("velocity offset not applied")
	}
	// IDs must be unique.
	seen := map[int64]bool{}
	for _, id := range m.ID {
		if seen[id] {
			t.Fatal("duplicate ID after merge")
		}
		seen[id] = true
	}
}
