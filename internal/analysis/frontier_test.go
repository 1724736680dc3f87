package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nbody"
	"repro/internal/rng"
)

// frontierPoint is one sample of an accuracy-cost frontier: the
// interaction count of one force evaluation at the given θ and its RMS
// relative force error versus direct summation.
type frontierPoint struct {
	ints int64
	rms  float64
}

// frontier returns a function that samples the modified (Barnes'
// grouped) or, when original is set, the classic per-particle treecode
// frontier of model at one θ.
func frontier(t *testing.T, model *nbody.System) func(original bool, theta float64) frontierPoint {
	t.Helper()
	ref := model.Clone()
	nbody.DirectForces(ref, 1, 0.01)
	return func(original bool, theta float64) frontierPoint {
		s := model.Clone()
		tc := core.New(core.Options{Theta: theta, Ncrit: 256, G: 1, Eps: 0.01}, nil)
		compute := tc.ComputeForces
		if original {
			compute = tc.ComputeForcesOriginal
		}
		st, err := compute(s)
		if err != nil {
			t.Fatal(err)
		}
		es, err := CompareForces(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		return frontierPoint{st.Interactions, es.RMS}
	}
}

func TestAccuracyCostFrontierShape(t *testing.T) {
	sample := frontier(t, nbody.Plummer(3000, 1, 1, 1, rng.New(61)))
	var prev frontierPoint
	// Decreasing θ: cost up, error down.
	for i, theta := range []float64{1.2, 0.9, 0.6, 0.4} {
		p := sample(false, theta)
		if i > 0 && p.ints <= prev.ints {
			t.Errorf("cost not increasing at θ=%v", theta)
		}
		if i > 0 && p.rms >= prev.rms {
			t.Errorf("error not decreasing at θ=%v", theta)
		}
		prev = p
	}
}

// TestModifiedFrontierMatchesPaperClaim is experiment E9: the paper's
// §3 statement (with its refs [15][17]) that "our modified tree
// algorithm is more accurate than the original tree algorithm for the
// same accuracy parameter" — and that it "performs larger number of
// operations". Pair the two accuracy-cost frontiers at each θ and check
// both sides of the trade, and that each frontier trades cost for error:
// a smaller θ costs more interactions and errs less.
func TestModifiedFrontierMatchesPaperClaim(t *testing.T) {
	sample := frontier(t, nbody.Plummer(4000, 1, 1, 1, rng.New(62)))
	var prev [2]frontierPoint
	for i, theta := range []float64{1.4, 1.1, 0.9, 0.7, 0.55, 0.45} {
		m, o := sample(false, theta), sample(true, theta)
		t.Logf("θ=%.2f: modified RMS %.4f%% @ %d ints, original RMS %.4f%% @ %d ints",
			theta, 100*m.rms, m.ints, 100*o.rms, o.ints)
		if m.rms >= o.rms {
			t.Errorf("θ=%.2f: modified error %.4f%% not below original %.4f%%", theta, 100*m.rms, 100*o.rms)
		}
		if m.ints <= o.ints {
			t.Errorf("θ=%.2f: modified ops %d not above original %d", theta, m.ints, o.ints)
		}
		for k, p := range [2]frontierPoint{m, o} {
			if i > 0 && (p.ints <= prev[k].ints || p.rms >= prev[k].rms) {
				t.Errorf("θ=%.2f: frontier %d does not trade cost for error: %+v after %+v", theta, k, p, prev[k])
			}
		}
		prev = [2]frontierPoint{m, o}
	}
}
