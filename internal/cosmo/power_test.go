package cosmo

import (
	"math"
	"testing"
)

func TestTransferBBKSLimits(t *testing.T) {
	// T → 1 as k → 0.
	if got := TransferBBKS(1e-8, 0.5); math.Abs(got-1) > 1e-4 {
		t.Errorf("T(k→0) = %v", got)
	}
	if got := TransferBBKS(0, 0.5); got != 1 {
		t.Errorf("T(0) = %v", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for _, k := range []float64{0.001, 0.01, 0.1, 1, 10} {
		tr := TransferBBKS(k, 0.5)
		if tr >= prev {
			t.Errorf("T not decreasing at k=%v", k)
		}
		prev = tr
	}
	// Small-scale suppression: T ~ ln(q)/q² asymptotically, very small.
	if tr := TransferBBKS(10, 0.5); tr > 1e-2 {
		t.Errorf("T(10) = %v, too large", tr)
	}
}

func TestPowerSpectrumNormalization(t *testing.T) {
	p, err := NewPowerSpectrum(SCDM(), 1, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	// After normalisation, SigmaR(8 Mpc/h) must reproduce sigma8.
	got := p.SigmaR(8 / 0.5)
	if math.Abs(got-0.67)/0.67 > 1e-6 {
		t.Errorf("SigmaR(8/h) = %v, want 0.67", got)
	}
}

func TestPowerSpectrumShape(t *testing.T) {
	p, _ := NewPowerSpectrum(SCDM(), 1, 0.67)
	// P(k) rises as k^ns at large scales and turns over.
	k1, k2 := 1e-4, 2e-4
	ratio := p.P(k2) / p.P(k1)
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("large-scale P ratio = %v, want ~2 (n_s=1)", ratio)
	}
	// A peak exists: P(0.01) greater than both ends.
	if p.P(0.02) <= p.P(1e-4) || p.P(0.02) <= p.P(10) {
		t.Error("no turnover in P(k)")
	}
	if p.P(0) != 0 || p.P(-1) != 0 {
		t.Error("P must vanish for k<=0")
	}
}

func TestNewPowerSpectrumRejects(t *testing.T) {
	if _, err := NewPowerSpectrum(SCDM(), 1, 0); err == nil {
		t.Error("sigma8=0 accepted")
	}
	if _, err := NewPowerSpectrum(Cosmology{}, 1, 0.6); err == nil {
		t.Error("invalid cosmology accepted")
	}
}

func TestTopHatW(t *testing.T) {
	if got := topHatW(0); got != 1 {
		t.Errorf("W(0) = %v", got)
	}
	// Continuity across the series/exact switch at x=1e-2.
	lo, hi := topHatW(0.99e-2), topHatW(1.01e-2)
	if math.Abs(lo-hi) > 1e-6 {
		t.Errorf("W discontinuous at switch: %v vs %v", lo, hi)
	}
	// First zero near x = 4.493.
	if math.Abs(topHatW(4.493409)) > 1e-5 {
		t.Errorf("W(4.4934) = %v, want ~0", topHatW(4.493409))
	}
}

func TestSigmaRMonotone(t *testing.T) {
	p, _ := NewPowerSpectrum(SCDM(), 1, 0.67)
	prev := math.Inf(1)
	for _, r := range []float64{1, 4, 16, 64} {
		s := p.SigmaR(r)
		if s >= prev {
			t.Errorf("sigma(R) not decreasing at R=%v", r)
		}
		prev = s
	}
}
