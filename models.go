package grape5

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cosmo"
	"repro/internal/integrate"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/vec"
)

// Vec3 is the 3-vector type of positions, velocities and accelerations.
type Vec3 = vec.V3

// G is the gravitational constant of the internal unit system
// (lengths Mpc, velocities km/s, masses 1e10 Msun).
const G = units.G

// Names of the model-unit problems every front-end offers (grape5sim
// -model, the job server's "model" field, perfreport record).
const (
	ModelPlummer = "plummer"
	ModelUniform = "uniform"
)

// Model is one named model-unit problem: the unit system it lives in,
// the softening and timestep a run uses unless told otherwise, and its
// initial-conditions constructor.
type Model struct {
	Name string
	// G is the gravitational constant of the model's units.
	G float64
	// Eps and DT are the default softening length and timestep.
	Eps, DT float64
	// New builds n particles (total mass 1, unit radius) from seed.
	New func(n int, seed uint64) *System
}

// models is the model-unit table. A Plummer sphere tolerates a coarser
// step than the cold uniform sphere, which collapses.
var models = []Model{
	{ModelPlummer, 1, 0.02, 0.005, func(n int, seed uint64) *System { return Plummer(n, 1, 1, 1, seed) }},
	{ModelUniform, 1, 0.02, 0.002, func(n int, seed uint64) *System { return UniformSphere(n, 1, 1, seed) }},
}

// LookupModel returns the model-unit problem of that name.
func LookupModel(name string) (Model, error) {
	for _, m := range models {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("unknown model %q (want %s or %s)", name, ModelPlummer, ModelUniform)
}

// Plummer returns an n-particle Plummer sphere of total mass m and
// scale radius a in virial equilibrium (units with gravitational
// constant g), seeded deterministically.
func Plummer(n int, m, a, g float64, seed uint64) *System {
	return nbody.Plummer(n, m, a, g, rng.New(seed))
}

// UniformSphere returns n cold particles uniformly filling a sphere.
func UniformSphere(n int, m, r float64, seed uint64) *System {
	return nbody.UniformSphere(n, m, r, rng.New(seed))
}

// Halo is a friends-of-friends group found by FindHalos.
type Halo = analysis.Halo

// FindHalos runs the friends-of-friends halo finder with linking
// parameter b (0 = standard 0.2) and the given minimum membership
// (0 = 10). Halos are returned largest first.
func FindHalos(s *System, b float64, minMembers int) ([]Halo, error) {
	return analysis.FriendsOfFriends(s, analysis.FOFOptions{
		LinkParam: b, MinMembers: minMembers,
	})
}

// Merge combines two systems with position/velocity offsets applied to
// the second — the collision setup.
func Merge(a, b *System, dPos, dVel Vec3) *System {
	return nbody.Merge(a, b, dPos, dVel)
}

// CosmoSphereParams configure a paper-style cosmological realisation:
// a sphere of comoving radius RadiusMpc cut from a standard-CDM
// Zel'dovich realisation at redshift ZInit.
type CosmoSphereParams struct {
	// GridN is the IC grid resolution per dimension (power of two).
	// The sphere keeps ~π/6·GridN³ particles.
	GridN int
	// LatticeN optionally decouples the particle lattice from the
	// Fourier grid (0 = GridN). The paper's N = 2,159,038 corresponds
	// to LatticeN = 160 (not a power of two) with GridN = 128.
	LatticeN int
	// RadiusMpc is the comoving selection radius (paper: 50).
	RadiusMpc float64
	// ZInit is the starting redshift (paper: 24).
	ZInit float64
	// Sigma8 normalises the power spectrum (0 = 0.67).
	Sigma8 float64
	// Seed selects the realisation.
	Seed uint64
}

// CosmoSphere holds a generated cosmological initial condition and its
// integration schedule.
type CosmoSphere struct {
	// Sys is the particle system in physical coordinates at ZInit.
	Sys *System
	// Schedule spans cosmic time from ZInit to z=0.
	Schedule integrate.Schedule
	// ParticleMass is the per-particle mass (1e10 Msun).
	ParticleMass float64
	// GridSpacing is the comoving inter-particle spacing (Mpc).
	GridSpacing float64
	// AInit is the starting scale factor.
	AInit float64
}

// NewCosmoSphere generates the paper's initial-condition class with the
// SCDM cosmology (Ω=1, h=0.5). steps is the number of equal timesteps
// to z=0 (the paper used 999).
func NewCosmoSphere(p CosmoSphereParams, steps int) (*CosmoSphere, error) {
	if p.RadiusMpc == 0 {
		p.RadiusMpc = units.PaperRadiusMpc
	}
	if p.ZInit == 0 {
		p.ZInit = units.PaperZInit
	}
	if p.Sigma8 == 0 {
		p.Sigma8 = 0.67
	}
	c := cosmo.SCDM()
	ps, err := cosmo.NewPowerSpectrum(c, 1, p.Sigma8)
	if err != nil {
		return nil, err
	}
	real, err := cosmo.GenerateSphere(cosmo.ICParams{
		Power:     ps,
		GridN:     p.GridN,
		LatticeN:  p.LatticeN,
		BoxMpc:    2 * p.RadiusMpc,
		RadiusMpc: p.RadiusMpc,
		ZInit:     p.ZInit,
		Seed:      p.Seed,
	})
	if err != nil {
		return nil, err
	}
	sched := integrate.Schedule{
		T0:    c.Age(real.AInit),
		T1:    c.Age(1),
		Steps: steps,
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return &CosmoSphere{
		Sys:          real.System,
		Schedule:     sched,
		ParticleMass: real.ParticleMass,
		GridSpacing:  real.GridSpacing,
		AInit:        real.AInit,
	}, nil
}
