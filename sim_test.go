package grape5

import (
	"math"
	"testing"
)

func TestNewSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(nil, Config{DT: 0.01}); err == nil {
		t.Error("nil system accepted")
	}
	s := Plummer(100, 1, 1, 1, 1)
	if _, err := NewSimulation(s, Config{DT: 0}); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := NewSimulation(s, Config{DT: 0.01, Engine: EngineKind(9)}); err == nil {
		t.Error("bad engine kind accepted")
	}
}

func TestSimulationDefaultsG(t *testing.T) {
	s := Plummer(64, 1, 1, G, 2)
	sim, err := NewSimulation(s, Config{DT: 1e-5, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if sim.cfg.G != G {
		t.Errorf("default G = %v, want %v", sim.cfg.G, G)
	}
}

func TestSimulationHostEnergyConservation(t *testing.T) {
	s := Plummer(400, 1, 1, 1, 3)
	sim, err := NewSimulation(s, Config{
		Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005, Engine: EngineHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.01 {
		t.Errorf("tree-force energy drift = %v over 0.5 time units", rel)
	}
	if sim.Steps() != 100 {
		t.Errorf("steps = %d", sim.Steps())
	}
	if math.Abs(sim.Time()-0.5) > 1e-12 {
		t.Errorf("time = %v", sim.Time())
	}
	if sim.TotalInteractions == 0 || sim.LastStats.N != 400 {
		t.Errorf("stats not recorded: %+v", sim.LastStats)
	}
	if h := sim.Health(); h.BoardsTotal != 0 || sim.Cluster() != nil {
		t.Errorf("host simulation reports hardware: %+v", h)
	}
}

func TestSimulationGRAPEEnergyConservation(t *testing.T) {
	// The full paper pipeline in miniature: Plummer sphere, modified
	// treecode, forces on the emulated GRAPE-5, leapfrog. Despite the
	// 0.3% pipeline noise the energy drift over a short run must stay
	// small (the paper ran 999 steps on this arithmetic).
	s := Plummer(400, 1, 1, 1, 4)
	sim, err := NewSimulation(s, Config{
		Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005, Engine: EngineGRAPE5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.02 {
		t.Errorf("GRAPE energy drift = %v", rel)
	}
	c := sim.HardwareCounters()
	if c.Interactions == 0 || c.Runs == 0 {
		t.Errorf("hardware idle: %+v", c)
	}
	if c.HWSeconds() <= 0 {
		t.Error("no simulated hardware time")
	}
	if h := sim.Health(); h.Shards != 1 || h.BoardsActive != 2 || sim.Cluster() != nil {
		t.Errorf("unguarded GRAPE simulation: health %+v, want one bare 2-board system", h)
	}
}

func TestSimulationGRAPERescalesWithExpansion(t *testing.T) {
	// An expanding system must keep fitting in the fixed-point window:
	// run a cold expanding shell and check no clamping happened.
	s := UniformSphere(200, 1e-6, 1, 5) // negligible mass: pure expansion
	for i := range s.Vel {
		s.Vel[i] = s.Pos[i].Scale(10) // Hubble-like outflow
	}
	sim, err := NewSimulation(s, Config{
		Theta: 0.7, Ncrit: 32, G: 1, Eps: 0.05, DT: 0.01, Engine: EngineGRAPE5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	// System expanded ~6x; all positions must have remained in range.
	if c := sim.HardwareCounters(); c.RangeClamps != 0 {
		t.Errorf("fixed-point range clamps: %d", c.RangeClamps)
	}
}

func TestTwoBodyFacade(t *testing.T) {
	s := TwoBody(1, 1, 1, 1)
	if s.N() != 2 {
		t.Fatal("not two bodies")
	}
	sim, err := NewSimulation(s, Config{Theta: 0.01, Ncrit: 1, LeafCap: 1, G: 1, DT: 1e-3, Engine: EngineHost})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	// Separation must stay ~1 on the circular orbit.
	d := sim.Sys.Pos[0].Sub(sim.Sys.Pos[1]).Norm()
	if math.Abs(d-1) > 0.01 {
		t.Errorf("separation drifted to %v", d)
	}
}

func TestMergeFacade(t *testing.T) {
	a := Plummer(50, 1, 1, 1, 6)
	b := Plummer(70, 1, 1, 1, 7)
	m := Merge(a, b, Vec3{X: 5}, Vec3{X: -0.1})
	if m.N() != 120 {
		t.Errorf("N = %d", m.N())
	}
}

func TestNewCosmoSphere(t *testing.T) {
	cs, err := NewCosmoSphere(CosmoSphereParams{GridN: 8, Seed: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Sys.N() == 0 {
		t.Fatal("no particles")
	}
	// Defaults: radius 50, z=24 -> a=0.04.
	if math.Abs(cs.AInit-0.04) > 1e-12 {
		t.Errorf("AInit = %v", cs.AInit)
	}
	if cs.Schedule.Steps != 100 || cs.Schedule.DT() <= 0 {
		t.Errorf("schedule = %+v", cs.Schedule)
	}
	// Cosmic time window: 13.04 Gyr minus 0.104 Gyr in internal units.
	gotGyr := (cs.Schedule.T1 - cs.Schedule.T0) * 977.79
	if math.Abs(gotGyr-12.9) > 0.1 {
		t.Errorf("integration window = %v Gyr, want ~12.9", gotGyr)
	}
	if cs.ParticleMass <= 0 || cs.GridSpacing <= 0 {
		t.Error("missing metadata")
	}
}

func TestNewCosmoSphereRejectsBadGrid(t *testing.T) {
	if _, err := NewCosmoSphere(CosmoSphereParams{GridN: 9, Seed: 1}, 10); err == nil {
		t.Error("bad grid accepted")
	}
}

func TestHernquistFacade(t *testing.T) {
	s := Hernquist(500, 1, 1, 1, 9)
	if s.N() != 500 {
		t.Fatalf("N = %d", s.N())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialDiskFacade(t *testing.T) {
	s := ExponentialDisk(500, 1, 1, 0.05, 1, 10)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFindHalosFacade(t *testing.T) {
	// Two well-separated Plummer spheres are two halos at a tight
	// linking length.
	a := Plummer(300, 1, 0.1, 1, 11)
	b := Plummer(300, 1, 0.1, 1, 12)
	m := Merge(a, b, Vec3{X: 50}, Vec3{})
	halos, err := FindHalos(m, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 2 {
		t.Fatalf("found %d halos, want 2", len(halos))
	}
	if halos[0].N < 250 {
		t.Errorf("halo too small: %d", halos[0].N)
	}
}

func TestSimulationPMEngine(t *testing.T) {
	// A Plummer sphere under the PM engine: forces are soft below the
	// mesh scale, but global energy behaviour must be sane over a short
	// run and the engine must produce nonzero forces.
	s := Plummer(2000, 1, 1, 1, 13)
	sim, err := NewSimulation(s, Config{
		G: 1, DT: 0.005, Engine: EnginePM, PMGrid: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	var nonzero int
	for _, a := range sim.Sys.Acc {
		if a.Norm() > 0 {
			nonzero++
		}
	}
	if nonzero < sim.Sys.N()*9/10 {
		t.Fatalf("PM forces mostly zero: %d of %d", nonzero, sim.Sys.N())
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	// The sphere must not explode: bounding radius stays within ~2x.
	maxR := 0.0
	for _, p := range sim.Sys.Pos {
		if r := p.Norm(); r > maxR {
			maxR = r
		}
	}
	if maxR > 25 {
		t.Errorf("PM run exploded: max radius %v", maxR)
	}
}

func TestSimulationTreeReuse(t *testing.T) {
	s := Plummer(1000, 1, 1, 1, 14)
	sim, err := NewSimulation(s, Config{
		Theta: 0.7, Ncrit: 128, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineHost, RebuildEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(40); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.02 {
		t.Errorf("tree-reuse energy drift = %v", rel)
	}
}
