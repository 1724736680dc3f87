package integrate

import (
	"fmt"
	"math"

	"repro/internal/nbody"
)

// TimestepCriterion selects a global timestep from the current
// dynamical state. The paper used a fixed step (999 equal steps); the
// criterion is the standard extension for runs whose dynamical time
// shrinks as structure collapses.
type TimestepCriterion struct {
	// Eta is the dimensionless accuracy parameter (default 0.2).
	Eta float64
	// Eps is the softening length entering the acceleration criterion.
	Eps float64
	// MaxDT caps the step (0 = uncapped).
	MaxDT float64
	// MinDT floors the step (0 = unfloored); a floor guards against
	// pathological single-particle accelerations stalling the run.
	MinDT float64
}

// Pick returns the global timestep dt = η·min_i sqrt(eps/|a_i|), the
// standard collisionless softened-force criterion (e.g. GADGET's
// ErrTolIntAccuracy form). Accelerations must be current. A non-finite
// acceleration — a faulted board surviving guard fallback, an IC bug —
// is a loud error: silently folding NaN/Inf into the step size would
// poison the clock and every position after it.
func (c TimestepCriterion) Pick(s *nbody.System) (float64, error) {
	eta := c.Eta
	if eta == 0 {
		eta = 0.2
	}
	maxA := 0.0
	for i, a := range s.Acc {
		n := a.Norm()
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return 0, fmt.Errorf("integrate: non-finite acceleration |a|=%v for particle %d (id %d): refusing to derive a timestep from corrupt forces", n, i, s.ID[i])
		}
		if n > maxA {
			maxA = n
		}
	}
	var dt float64
	if maxA == 0 || c.Eps <= 0 {
		dt = c.MaxDT // free system: no intrinsic scale
		if dt == 0 {
			dt = 1
		}
	} else {
		dt = eta * math.Sqrt(c.Eps/maxA)
	}
	if c.MaxDT > 0 && dt > c.MaxDT {
		dt = c.MaxDT
	}
	if c.MinDT > 0 && dt < c.MinDT {
		dt = c.MinDT
	}
	return dt, nil
}
