package perf

import (
	"math"
	"testing"
)

func TestBlockCostSingleRung(t *testing.T) {
	// Everyone on one rung: one substep per block, ratio exactly 1.
	b := BlockCost{Occupancy: []int64{0, 0, 0, 2000}}
	if got := b.Substeps(); got != 1 {
		t.Errorf("Substeps = %d, want 1", got)
	}
	if got := b.ForceEvals(); got != 2000 {
		t.Errorf("ForceEvals = %d, want 2000", got)
	}
	if got := b.EvalRatio(); got != 1 {
		t.Errorf("EvalRatio = %v, want 1", got)
	}
}

func TestBlockCostHierarchy(t *testing.T) {
	// 4-rung ladder, rung 1 lowest occupied: substeps = 2^(3-1) = 4.
	b := BlockCost{Occupancy: []int64{0, 100, 300, 600}}
	if got := b.Substeps(); got != 4 {
		t.Errorf("Substeps = %d, want 4", got)
	}
	// 100·4 + 300·2 + 600·1 = 1600 evals vs 1000·4 = 4000 shared.
	if got := b.ForceEvals(); got != 1600 {
		t.Errorf("ForceEvals = %d, want 1600", got)
	}
	if got := b.SharedForceEvals(); got != 4000 {
		t.Errorf("SharedForceEvals = %d, want 4000", got)
	}
	if got, want := b.EvalRatio(), 0.4; math.Abs(got-want) > 1e-15 {
		t.Errorf("EvalRatio = %v, want %v", got, want)
	}
}
