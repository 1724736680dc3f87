package perf

import (
	"testing"

	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/rng"
)

func TestMeasureKernelCostSane(t *testing.T) {
	c := MeasureKernelCost()
	if c.P2PSeconds <= 0 || c.MACSeconds <= 0 {
		t.Fatalf("non-positive kernel cost: %+v", c)
	}
	// Both kernels run tens of ns per op at worst on any machine this
	// code targets; a second per op means the timer loop is broken.
	if c.P2PSeconds > 1e-6 || c.MACSeconds > 1e-6 {
		t.Errorf("implausibly slow kernel cost: %+v", c)
	}
}

func TestWithKernelCost(t *testing.T) {
	h := DS10()
	c := KernelCost{P2PSeconds: 1e-9, MACSeconds: 2e-9}
	m := h.WithKernelCost(c)
	if m.VisitCoeff != c.MACSeconds || m.P2PCoeff != c.P2PSeconds {
		t.Errorf("measured coefficients not applied: %+v", m)
	}
	if m.BuildCoeff != h.BuildCoeff || m.WalkCoeff != h.WalkCoeff || m.ParticleCoeff != h.ParticleCoeff {
		t.Errorf("memory-bound coefficients must be kept: %+v", m)
	}
	if h.P2PCoeff != 0 {
		t.Errorf("DS10 calibration gained a host force term: %+v", h)
	}
}

func TestHostForceSeconds(t *testing.T) {
	if s := DS10().HostForceSeconds(1e9); s != 0 {
		t.Errorf("unmeasured model priced host forces at %v s", s)
	}
	h := DS10().WithKernelCost(KernelCost{P2PSeconds: 2e-9, MACSeconds: 1e-9})
	if s := h.HostForceSeconds(1e9); s != 2.0 {
		t.Errorf("HostForceSeconds = %v, want 2.0", s)
	}
}

// TestFasterHostShiftsOptimumDown pins the direction of the n_g balance
// under a faster host term: cheaper opening tests make short lists
// affordable again, so the optimal group size cannot grow.
func TestFasterHostShiftsOptimumDown(t *testing.T) {
	s := nbody.Plummer(3000, 1, 1, 1, rng.New(4))
	ncrits := []int{50, 100, 200, 500, 1000, 2000}
	slow := DS10()
	fast := slow.WithKernelCost(KernelCost{
		P2PSeconds: 1e-9,
		MACSeconds: slow.VisitCoeff / 4, // the batched MAC's measured class of win
	})
	cfg := g5.DefaultConfig()
	ps, err := NgSweep(s.Clone(), 0.75, ncrits, slow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := NgSweep(s.Clone(), 0.75, ncrits, fast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	os_ := Optimum(ps).Ncrit
	of := Optimum(pf).Ncrit
	if of > os_ {
		t.Errorf("faster host moved optimum n_g up: %d -> %d", os_, of)
	}
	// The K-board restatement must hold for the measured model too:
	// more boards never shrink the optimal group size.
	if a, b := OptimalNcritK(pf, 1), OptimalNcritK(pf, 4); b < a {
		t.Errorf("OptimalNcritK decreasing in K: K=1 %d, K=4 %d", a, b)
	}
}
