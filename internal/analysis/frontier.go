package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nbody"
)

// FrontierPoint is one sample of an accuracy-cost frontier: the force
// error obtained for a given interaction count.
type FrontierPoint struct {
	// Theta is the opening parameter that produced the point.
	Theta float64
	// Interactions is the pairwise interaction count of one force
	// evaluation (the cost on GRAPE-class hardware).
	Interactions int64
	// RMS and P99 are the relative force errors versus direct
	// summation.
	RMS, P99 float64
}

// FrontierAlgorithm selects the treecode variant being swept.
type FrontierAlgorithm int

const (
	// FrontierModified is Barnes' grouped algorithm (the paper's).
	FrontierModified FrontierAlgorithm = iota
	// FrontierOriginal is the classic per-particle walk.
	FrontierOriginal
)

// AccuracyCostFrontier sweeps θ for the given algorithm over the
// system, measuring force error against exact direct summation and the
// interaction count at each θ. It reproduces the comparison of the
// paper's §3 (citing Barnes 1990 and Kawai & Makino 1999): at equal
// cost the modified algorithm delivers smaller force errors, because
// nearby interactions are exact and the group criterion measures
// distance from the group surface.
func AccuracyCostFrontier(model *nbody.System, alg FrontierAlgorithm, thetas []float64, ncrit int, g, eps float64) ([]FrontierPoint, error) {
	if model.N() == 0 {
		return nil, fmt.Errorf("analysis: empty system")
	}
	ref := model.Clone()
	nbody.DirectForces(ref, g, eps)

	out := make([]FrontierPoint, 0, len(thetas))
	for _, theta := range thetas {
		s := model.Clone()
		tc := core.New(core.Options{Theta: theta, Ncrit: ncrit, G: g, Eps: eps}, nil)
		var st *core.Stats
		var err error
		switch alg {
		case FrontierModified:
			st, err = tc.ComputeForces(s)
		case FrontierOriginal:
			st, err = tc.ComputeForcesOriginal(s)
		default:
			return nil, fmt.Errorf("analysis: unknown algorithm %d", alg)
		}
		if err != nil {
			return nil, err
		}
		es, err := CompareForces(s, ref)
		if err != nil {
			return nil, err
		}
		out = append(out, FrontierPoint{
			Theta:        theta,
			Interactions: st.Interactions,
			RMS:          es.RMS,
			P99:          es.P99,
		})
	}
	return out, nil
}
