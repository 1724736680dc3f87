package analysis

import (
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
)

func TestAccuracyCostFrontierShape(t *testing.T) {
	model := nbody.Plummer(3000, 1, 1, 1, rng.New(61))
	thetas := []float64{1.2, 0.9, 0.6, 0.4}
	pts, err := AccuracyCostFrontier(model, FrontierModified, thetas, 256, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(thetas) {
		t.Fatalf("points = %d", len(pts))
	}
	// Decreasing θ: cost up, error down.
	for i := 1; i < len(pts); i++ {
		if pts[i].Interactions <= pts[i-1].Interactions {
			t.Errorf("cost not increasing at θ=%v", pts[i].Theta)
		}
		if pts[i].RMS >= pts[i-1].RMS {
			t.Errorf("error not decreasing at θ=%v", pts[i].Theta)
		}
	}
}

// TestModifiedFrontierMatchesPaperClaim is experiment E9: the paper's
// §3 statement (with its refs [15][17]) that "our modified tree
// algorithm is more accurate than the original tree algorithm for the
// same accuracy parameter" — and that it "performs larger number of
// operations". Pair the two frontiers at each θ and check both sides
// of the trade.
func TestModifiedFrontierMatchesPaperClaim(t *testing.T) {
	model := nbody.Plummer(4000, 1, 1, 1, rng.New(62))
	thetas := []float64{1.4, 1.1, 0.9, 0.7, 0.55, 0.45}
	mod, err := AccuracyCostFrontier(model, FrontierModified, thetas, 256, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := AccuracyCostFrontier(model, FrontierOriginal, thetas, 256, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range thetas {
		m, o := mod[i], orig[i]
		t.Logf("θ=%.2f: modified RMS %.4f%% @ %d ints, original RMS %.4f%% @ %d ints",
			m.Theta, 100*m.RMS, m.Interactions, 100*o.RMS, o.Interactions)
		if m.RMS >= o.RMS {
			t.Errorf("θ=%.2f: modified error %.4f%% not below original %.4f%%",
				m.Theta, 100*m.RMS, 100*o.RMS)
		}
		if m.Interactions <= o.Interactions {
			t.Errorf("θ=%.2f: modified ops %d not above original %d",
				m.Theta, m.Interactions, o.Interactions)
		}
	}
}

func TestFrontierValidation(t *testing.T) {
	if _, err := AccuracyCostFrontier(nbody.New(0), FrontierModified, []float64{0.7}, 64, 1, 0.01); err == nil {
		t.Error("empty system accepted")
	}
	model := nbody.Plummer(100, 1, 1, 1, rng.New(63))
	if _, err := AccuracyCostFrontier(model, FrontierAlgorithm(9), []float64{0.7}, 64, 1, 0.01); err == nil {
		t.Error("bad algorithm accepted")
	}
}
