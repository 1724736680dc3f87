// Package units defines the astrophysical unit system used by the
// reproduction and the constants of the paper's cosmological model.
//
// Internal unit system:
//
//	length   1 Mpc
//	velocity 1 km/s
//	mass     1e10 solar masses
//
// which fixes the time unit to 1 Mpc/(km/s) = 977.79 Gyr and the
// gravitational constant to G = 43.0091 Mpc (km/s)^2 / (1e10 Msun).
//
// The paper simulates a sphere of comoving radius 50 Mpc with
// N = 2,159,038 particles of 1.7e10 Msun each in a standard CDM
// (Omega=1) universe; these constants make that mass come out of the
// mean-density arithmetic, which is verified by tests.
package units

import "math"

const (
	// G is the gravitational constant in internal units
	// (Mpc · (km/s)² / 1e10 Msun): 4.30091e-9 Mpc (km/s)²/Msun × 1e10.
	G = 43.0091

	// TimeUnitGyr is the internal time unit (Mpc / (km/s)) in Gyr.
	TimeUnitGyr = 977.79222

	// HubbleUnit converts h (dimensionless) to H0 in internal units:
	// H0 = 100 h km/s/Mpc = 100 h (internal velocity / internal length).
	HubbleUnit = 100.0

	// RhoCrit0 is the z=0 critical density for h=1 in internal units
	// (1e10 Msun / Mpc^3): rho_crit = 3 H0² / (8 π G).
	// With H0 = 100 km/s/Mpc and G above this is 2.77536627e11 Msun/Mpc³
	// = 27.7536627 in units of 1e10 Msun/Mpc³.
	RhoCrit0 = 3 * HubbleUnit * HubbleUnit / (8 * math.Pi * G)
)

// Paper constants: the headline run of Kawai, Fukushige & Makino (1999).
const (
	// PaperN is the particle count of the headline simulation.
	PaperN = 2159038

	// PaperSteps is the number of timesteps of the headline simulation.
	PaperSteps = 999

	// PaperRadiusMpc is the comoving radius of the simulated sphere.
	PaperRadiusMpc = 50.0

	// PaperZInit is the starting redshift.
	PaperZInit = 24.0

	// PaperParticleMass is the mass per particle quoted in the paper,
	// in solar masses.
	PaperParticleMass = 1.7e10

	// PaperInteractions is the total number of particle-particle
	// interactions of the headline run (modified tree algorithm).
	PaperInteractions = 2.90e13

	// PaperOriginalInteractions is the estimated interaction count for
	// the original (per-particle) tree algorithm on the same runs.
	PaperOriginalInteractions = 4.69e12

	// PaperAvgListLength is the average interaction-list length quoted
	// in the paper (PaperInteractions / (PaperN * PaperSteps)).
	PaperAvgListLength = 13431.0

	// PaperWallClockSeconds is the total wall-clock time of the run.
	PaperWallClockSeconds = 30141.0

	// PaperRawGflops is the raw sustained speed (modified-algorithm
	// operation count / wall clock).
	PaperRawGflops = 36.4

	// PaperEffectiveGflops is the effective sustained speed after
	// correcting to the original algorithm's operation count.
	PaperEffectiveGflops = 5.92

	// PaperPricePerMflops is the headline price/performance in dollars
	// per Mflops.
	PaperPricePerMflops = 7.0

	// PaperOpsPerInteraction is the operation-count convention
	// (Warren & Salmon): 38 floating-point operations per pairwise
	// gravitational interaction.
	PaperOpsPerInteraction = 38
)

// Cosmology of the headline run: standard CDM.
const (
	// OmegaM is the matter density parameter (Einstein-de Sitter).
	OmegaM = 1.0

	// LittleH is the dimensionless Hubble parameter. h = 0.5 is the
	// standard-CDM convention of the era and reproduces the paper's
	// particle mass for the 50 Mpc sphere.
	LittleH = 0.5
)

// HubbleH0 returns H0 in internal units ((km/s)/Mpc) for parameter h.
func HubbleH0(h float64) float64 { return HubbleUnit * h }

// RhoCrit returns the z=0 critical density in internal units
// (1e10 Msun / Mpc^3) for Hubble parameter h.
func RhoCrit(h float64) float64 { return RhoCrit0 * h * h }

// RhoMean returns the z=0 comoving mean matter density in internal
// units for density parameter omegaM and Hubble parameter h.
func RhoMean(omegaM, h float64) float64 { return omegaM * RhoCrit(h) }

// SphereMass returns the total mass (internal units) of a comoving
// sphere of radius r Mpc at the mean density.
func SphereMass(omegaM, h, r float64) float64 {
	return RhoMean(omegaM, h) * 4 * math.Pi / 3 * r * r * r
}

// ParticleMass returns the per-particle mass (internal units) when a
// mean-density comoving sphere of radius r Mpc is sampled with n
// particles.
func ParticleMass(omegaM, h, r float64, n int) float64 {
	return SphereMass(omegaM, h, r) / float64(n)
}
