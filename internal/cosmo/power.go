package cosmo

import (
	"fmt"
	"math"
)

// TransferBBKS is the Bardeen, Bond, Kaiser & Szalay (1986) cold dark
// matter transfer function, the fitting form behind "standard CDM"
// spectra of the paper's era. k is in Mpc⁻¹ (comoving); gamma is the
// shape parameter Γ = Ω_m·h.
func TransferBBKS(k, gamma float64) float64 {
	if k <= 0 {
		return 1
	}
	q := k / gamma // q in h/Mpc convention folded into gamma
	t := math.Log(1+2.34*q) / (2.34 * q)
	poly := 1 + 3.89*q + math.Pow(16.1*q, 2) + math.Pow(5.46*q, 3) + math.Pow(6.71*q, 4)
	return t * math.Pow(poly, -0.25)
}

// PowerSpectrum is a z=0 linear CDM power spectrum P(k) = A·kⁿ·T²(k),
// normalised through σ₈.
type PowerSpectrum struct {
	// Cosmo supplies the shape parameter Γ = Ωm·h.
	Cosmo Cosmology
	// Ns is the primordial spectral index (1 = Harrison-Zel'dovich).
	Ns float64
	// Sigma8 is the RMS linear density contrast in 8 Mpc/h spheres at
	// z=0 used for normalisation.
	Sigma8 float64

	amp float64 // cached amplitude A
}

// NewPowerSpectrum builds and normalises a spectrum. Typical standard-
// CDM parameters of the era: ns=1, σ₈≈0.6-0.7.
func NewPowerSpectrum(c Cosmology, ns, sigma8 float64) (*PowerSpectrum, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if sigma8 <= 0 {
		return nil, fmt.Errorf("cosmo: sigma8 must be positive")
	}
	p := &PowerSpectrum{Cosmo: c, Ns: ns, Sigma8: sigma8, amp: 1}
	s := p.SigmaR(8 / c.H) // 8 Mpc/h in Mpc
	p.amp = sigma8 * sigma8 / (s * s)
	return p, nil
}

// P returns the z=0 power at comoving wavenumber k (Mpc⁻¹), in Mpc³.
func (p *PowerSpectrum) P(k float64) float64 {
	if k <= 0 {
		return 0
	}
	t := TransferBBKS(k, p.Cosmo.OmegaM*p.Cosmo.H)
	return p.amp * math.Pow(k, p.Ns) * t * t
}

// topHatW is the Fourier transform of the spherical top-hat window.
func topHatW(x float64) float64 {
	if x < 1e-2 {
		// Series expansion avoids the sin-cos cancellation, which loses
		// ~x⁻³ relative digits as x→0.
		x2 := x * x
		return 1 - x2/10 + x2*x2/280
	}
	return 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
}

// SigmaR returns the RMS linear density contrast in spheres of comoving
// radius r Mpc:
//
//	σ²(R) = (1/2π²) ∫ P(k) W²(kR) k² dk
func (p *PowerSpectrum) SigmaR(r float64) float64 {
	// Integrate in log k over a generous range around the window scale.
	const nk = 2048
	lkMin := math.Log(1e-5 / r)
	lkMax := math.Log(1e3 / r)
	f := func(lk float64) float64 {
		k := math.Exp(lk)
		w := topHatW(k * r)
		return p.P(k) * w * w * k * k * k // extra k from dk = k dlnk
	}
	integral := simpson(f, lkMin, lkMax, nk)
	return math.Sqrt(integral / (2 * math.Pi * math.Pi))
}
