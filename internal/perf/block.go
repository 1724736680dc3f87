package perf

// BlockCost is the cost model of the hierarchical block-timestep
// scheduler (internal/integrate.BlockLeapfrog). A block spans
// 2^MaxRung ticks of dt_min; a particle on rung k closes — and costs a
// force evaluation — 2^(MaxRung-k) times per block. The accuracy-
// matched alternative is a shared-dt run at the finest occupied rung's
// step, which evaluates all N particles on every one of its
// 2^(MaxRung-kmin) steps. The win of the hierarchy is the ratio of
// those two evaluation counts: with most particles parked on coarse
// rungs the numerator collapses while the denominator keeps paying N.
type BlockCost struct {
	// Occupancy is the particle count per rung, index k = rung k
	// (dt = dt_min·2^k), as reported by Simulation.RungOccupancy.
	Occupancy []int64
}

// maxRung returns the top rung index of the ladder.
func (b BlockCost) maxRung() int { return len(b.Occupancy) - 1 }

// minOccupied returns the lowest occupied rung (the substep driver),
// or the top rung when the ladder is empty.
func (b BlockCost) minOccupied() int {
	for k, n := range b.Occupancy {
		if n > 0 {
			return k
		}
	}
	return b.maxRung()
}

// N returns the total particle count across rungs.
func (b BlockCost) N() int64 {
	var n int64
	for _, c := range b.Occupancy {
		n += c
	}
	return n
}

// Substeps returns the force calculations per block: the lowest
// occupied rung closes 2^(MaxRung-kmin) times, and every other
// boundary coincides with one of its closings.
func (b BlockCost) Substeps() int64 {
	if len(b.Occupancy) == 0 {
		return 0
	}
	return int64(1) << uint(b.maxRung()-b.minOccupied())
}

// ForceEvals returns the i-particle force evaluations per block under
// the hierarchy: Σ_k occ[k]·2^(MaxRung-k).
func (b BlockCost) ForceEvals() int64 {
	var evals int64
	for k, n := range b.Occupancy {
		evals += n * (int64(1) << uint(b.maxRung()-k))
	}
	return evals
}

// SharedForceEvals returns the evaluations a shared-dt run at the
// finest occupied rung's step would spend over the same span: N on
// each of the block's substeps.
func (b BlockCost) SharedForceEvals() int64 {
	return b.N() * b.Substeps()
}

// EvalRatio returns ForceEvals/SharedForceEvals ∈ (0, 1]: the fraction
// of the shared-dt force work the hierarchy actually performs. 1 means
// a single occupied rung (no win, and bitwise-identical physics).
func (b BlockCost) EvalRatio() float64 {
	shared := b.SharedForceEvals()
	if shared == 0 {
		return 1
	}
	return float64(b.ForceEvals()) / float64(shared)
}
