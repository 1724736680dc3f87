package units

import (
	"math"
	"testing"
)

func TestRhoCrit(t *testing.T) {
	// rho_crit(h=1) = 2.775e11 Msun/Mpc^3 = 27.75 in 1e10 Msun/Mpc^3.
	got := RhoCrit(1)
	if math.Abs(got-27.7537)/27.7537 > 1e-3 {
		t.Errorf("RhoCrit(1) = %v, want ~27.75", got)
	}
}

// TestPaperParticleMass is experiment E8: the paper's quoted particle
// mass of 1.7e10 Msun must follow from Omega=1, h=0.5, a 50 Mpc sphere
// and N = 2,159,038.
func TestPaperParticleMass(t *testing.T) {
	m := ParticleMass(OmegaM, LittleH, PaperRadiusMpc, PaperN)
	msun := m * 1e10
	if math.Abs(msun-PaperParticleMass)/PaperParticleMass > 0.02 {
		t.Errorf("particle mass = %.3e Msun, paper quotes %.3e (rounding tolerance 2%%)",
			msun, float64(PaperParticleMass))
	}
}

func TestPaperAvgListLengthConsistency(t *testing.T) {
	// The paper's average list length is derived from its own totals:
	// 2.90e13 / (2,159,038 * 999) = 13,444 ~ 13,431 (rounding in the
	// paper's quoted 2.90e13).
	derived := PaperInteractions / (float64(PaperN) * float64(PaperSteps))
	if math.Abs(derived-PaperAvgListLength)/PaperAvgListLength > 0.01 {
		t.Errorf("derived avg list length %v differs from paper's %v by >1%%",
			derived, PaperAvgListLength)
	}
}

func TestPaperGflopsConsistency(t *testing.T) {
	// Raw Gflops = 38 ops * 2.90e13 interactions / 30141 s = 36.56.
	raw := PaperOpsPerInteraction * PaperInteractions / PaperWallClockSeconds / 1e9
	if math.Abs(raw-PaperRawGflops)/PaperRawGflops > 0.02 {
		t.Errorf("raw Gflops from paper totals = %v, paper quotes %v", raw, PaperRawGflops)
	}
	eff := PaperOpsPerInteraction * PaperOriginalInteractions / PaperWallClockSeconds / 1e9
	if math.Abs(eff-PaperEffectiveGflops)/PaperEffectiveGflops > 0.02 {
		t.Errorf("effective Gflops from paper totals = %v, paper quotes %v", eff, PaperEffectiveGflops)
	}
}

func TestHubbleH0(t *testing.T) {
	if HubbleH0(0.5) != 50 {
		t.Errorf("HubbleH0(0.5) = %v", HubbleH0(0.5))
	}
}

func TestSphereMassScales(t *testing.T) {
	m1 := SphereMass(1, 0.5, 50)
	m2 := SphereMass(1, 0.5, 100)
	if math.Abs(m2/m1-8) > 1e-12 {
		t.Errorf("sphere mass should scale as r^3: ratio = %v", m2/m1)
	}
	m3 := SphereMass(0.3, 0.5, 50)
	if math.Abs(m3/m1-0.3) > 1e-12 {
		t.Errorf("sphere mass should scale with OmegaM: ratio = %v", m3/m1)
	}
}
