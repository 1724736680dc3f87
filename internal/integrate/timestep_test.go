package integrate

import (
	"math"
	"testing"

	"repro/internal/nbody"
	"repro/internal/vec"
)

func TestTimestepCriterionPick(t *testing.T) {
	s := nbody.New(2)
	s.Mass[0], s.Mass[1] = 1, 1
	s.Acc[0] = vec.V3{X: 4}
	s.Acc[1] = vec.V3{X: 1}
	c := TimestepCriterion{Eta: 0.2, Eps: 0.01}
	// dt = 0.2 * sqrt(0.01/4) = 0.2*0.05 = 0.01.
	got, err := c.Pick(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.01) > 1e-14 {
		t.Errorf("dt = %v, want 0.01", got)
	}
}

func TestTimestepPickRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := nbody.New(2)
		s.Mass[0], s.Mass[1] = 1, 1
		s.Acc[0] = vec.V3{X: 1}
		s.Acc[1] = vec.V3{Y: bad}
		c := TimestepCriterion{Eta: 0.2, Eps: 0.01}
		if dt, err := c.Pick(s); err == nil {
			t.Errorf("Pick accepted |a| with component %v: dt = %v", bad, dt)
		}
	}
}

func TestTimestepCaps(t *testing.T) {
	s := nbody.New(1)
	s.Mass[0] = 1
	s.Acc[0] = vec.V3{X: 1e-12}
	c := TimestepCriterion{Eta: 0.2, Eps: 1, MaxDT: 0.5}
	if got, err := c.Pick(s); err != nil || got != 0.5 {
		t.Errorf("uncapped dt leaked: %v (err %v)", got, err)
	}
	s.Acc[0] = vec.V3{X: 1e12}
	c.MinDT = 1e-3
	if got, err := c.Pick(s); err != nil || got != 1e-3 {
		t.Errorf("floor not applied: %v (err %v)", got, err)
	}
}

func TestTimestepFreeSystem(t *testing.T) {
	s := nbody.New(1)
	s.Mass[0] = 1
	c := TimestepCriterion{MaxDT: 0.25}
	if got, err := c.Pick(s); err != nil || got != 0.25 {
		t.Errorf("free-system dt = %v (err %v)", got, err)
	}
	if got, err := (TimestepCriterion{}).Pick(s); err != nil || got != 1 {
		t.Errorf("unbounded free-system dt = %v (err %v)", got, err)
	}
}
