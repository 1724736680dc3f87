package integrate

import (
	"math"
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

func directForce(g, eps float64) ForceFunc {
	return func(s *nbody.System) error {
		nbody.DirectForces(s, g, eps)
		return nil
	}
}

func TestNewLeapfrogValidation(t *testing.T) {
	if _, err := NewLeapfrog(0, directForce(1, 0)); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := NewLeapfrog(-1, directForce(1, 0)); err == nil {
		t.Error("dt<0 accepted")
	}
	if _, err := NewLeapfrog(0.1, nil); err == nil {
		t.Error("nil force accepted")
	}
}

func TestTwoBodyCircularOrbit(t *testing.T) {
	// One full period of a circular orbit must return both bodies to
	// their initial positions to O(dt²) accuracy.
	const g = 1.0
	s := nbody.TwoBody(1, 1, 1, g)
	// Kepler's period of the relative orbit: its semi-major axis is the
	// separation d = 1, its mass the total 2.
	period := 2 * math.Pi * math.Sqrt(1/(g*2))
	steps := 2000
	lf, err := NewLeapfrog(period/float64(steps), directForce(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	init := s.Clone()
	if err := lf.Run(s, steps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if d := s.Pos[i].Sub(init.Pos[i]).Norm(); d > 5e-3 {
			t.Errorf("body %d displaced %v after one period", i, d)
		}
	}
}

func TestEnergyConservationTwoBody(t *testing.T) {
	const g = 1.0
	s := nbody.TwoBody(2, 1, 1.5, g)
	e0 := s.KineticEnergy() + nbody.PotentialEnergy(s, g, 0)
	lf, _ := NewLeapfrog(0.001, directForce(g, 0))
	if err := lf.Run(s, 5000); err != nil {
		t.Fatal(err)
	}
	e1 := s.KineticEnergy() + nbody.PotentialEnergy(s, g, 0)
	if math.Abs(e1-e0)/math.Abs(e0) > 1e-5 {
		t.Errorf("energy drift = %v", (e1-e0)/e0)
	}
}

func TestEnergyConservationPlummer(t *testing.T) {
	const g, eps = 1.0, 0.05
	s := nbody.Plummer(300, 1, 1, g, rng.New(1))
	e0 := s.KineticEnergy() + nbody.PotentialEnergy(s, g, eps)
	lf, _ := NewLeapfrog(0.005, directForce(g, eps))
	if err := lf.Run(s, 200); err != nil {
		t.Fatal(err)
	}
	e1 := s.KineticEnergy() + nbody.PotentialEnergy(s, g, eps)
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 2e-3 {
		t.Errorf("energy drift = %v over 1 time unit", rel)
	}
}

func TestMomentumConservation(t *testing.T) {
	const g = 1.0
	s := nbody.Plummer(200, 1, 1, g, rng.New(2))
	p0 := s.MeanVelocity().Scale(s.TotalMass())
	lf, _ := NewLeapfrog(0.01, directForce(g, 0.02))
	if err := lf.Run(s, 100); err != nil {
		t.Fatal(err)
	}
	p1 := s.MeanVelocity().Scale(s.TotalMass())
	if p1.Sub(p0).Norm() > 1e-11 {
		t.Errorf("momentum drift = %v", p1.Sub(p0).Norm())
	}
}

func TestTimeReversibility(t *testing.T) {
	const g, eps = 1.0, 0.05
	s := nbody.Plummer(100, 1, 1, g, rng.New(3))
	init := s.Clone()
	lf, _ := NewLeapfrog(0.01, directForce(g, eps))
	if err := lf.Run(s, 50); err != nil {
		t.Fatal(err)
	}
	Reverse(s)
	// Fresh integrator: forces must be re-primed after the reversal.
	lb, _ := NewLeapfrog(0.01, directForce(g, eps))
	if err := lb.Run(s, 50); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := range s.Pos {
		if d := s.Pos[i].Sub(init.Pos[i]).Norm(); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-9 {
		t.Errorf("reversed trajectory misses start by %v", maxErr)
	}
}

func TestDriftOnlyForFreeParticle(t *testing.T) {
	s := nbody.New(1)
	s.Mass[0] = 1
	s.Vel[0] = vec.V3{X: 2}
	zero := func(sys *nbody.System) error {
		for i := range sys.Acc {
			sys.Acc[i] = vec.Zero
		}
		return nil
	}
	lf, _ := NewLeapfrog(0.5, zero)
	if err := lf.Run(s, 4); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Pos[0].X-4) > 1e-14 {
		t.Errorf("free particle at %v, want x=4", s.Pos[0])
	}
}

func TestSchedule(t *testing.T) {
	sc := Schedule{T0: 1, T1: 3, Steps: 4}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.DT() != 0.5 {
		t.Errorf("DT = %v", sc.DT())
	}
	if err := (Schedule{T0: 1, T1: 1, Steps: 4}).Validate(); err == nil {
		t.Error("empty window accepted")
	}
	if err := (Schedule{T0: 0, T1: 1, Steps: 0}).Validate(); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestStepAutoPrimes(t *testing.T) {
	const g = 1.0
	s := nbody.TwoBody(1, 1, 1, g)
	lf, _ := NewLeapfrog(1e-4, directForce(g, 0))
	// No explicit Prime: first Step must still be correct.
	if err := lf.Step(s); err != nil {
		t.Fatal(err)
	}
	// After one tiny step the orbit energy is still right.
	e := s.KineticEnergy() + nbody.PotentialEnergy(s, g, 0)
	want := -0.5 // E = -G m1 m2 / (2 d) for a circular orbit of separation d
	if math.Abs(e-want) > 1e-6 {
		t.Errorf("energy after auto-primed step = %v, want %v", e, want)
	}
}

func TestPrimedFlag(t *testing.T) {
	calls := 0
	lf, err := NewLeapfrog(0.01, func(s *nbody.System) error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if lf.Primed() {
		t.Fatal("fresh integrator reports primed")
	}
	s := nbody.New(2)
	// A resume restores post-force accelerations and marks the
	// integrator primed: the next Step must not re-run the force prime.
	lf.SetPrimed(true)
	if err := lf.Step(s); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("primed Step made %d force calls, want exactly the in-step one", calls)
	}
	lf.SetPrimed(false)
	if err := lf.Step(s); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("unprimed Step made %d total force calls, want prime + step = 3", calls)
	}
}
