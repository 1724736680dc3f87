package grape5

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/g5"
	"repro/internal/nbody"
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
	if h := sim.Health(); h.Shards != 1 || h.BoardsActive != 2 || h.Recovery.Checks != 0 {
		t.Errorf("unguarded GRAPE simulation: health %+v, want one unchecked 2-board shard", h)
	}
}

// TestUnguardedHardwareErrorReturns: without the guard a hardware error
// is not recovered from, but it fails the force call — Prime returns it,
// naming the shard — instead of killing the process from a walk worker.
func TestUnguardedHardwareErrorReturns(t *testing.T) {
	sim, err := NewSimulation(Plummer(400, 1, 1, 1, 4), Config{
		Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005, Engine: EngineGRAPE5,
		Fault: &g5.FaultModel{TransientRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Prime()
	if err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("Prime on always-failing unguarded hardware = %v, want an error naming shard 0", err)
	}
	if cerr := sim.Close(); cerr != nil {
		t.Errorf("Close after the failed Prime reported it again: %v", cerr)
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
	s := nbody.TwoBody(1, 1, 1, 1)
	if s.N() != 2 {
		t.Fatal("not two bodies")
	}
	sim, err := NewSimulation(s, Config{Theta: 0.01, Ncrit: 1, G: 1, DT: 1e-3, Engine: EngineHost})
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
	t.Parallel()
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

// TestAdaptiveLeapfrogEnergy runs the adaptive dt policy to t = 0.5 and
// checks what the policy promises: every pick lies in [DTMin, DT], the
// clock is the sum of the picks, and energy drifts no more than a
// shared-step leapfrog with a varying step should.
func TestAdaptiveLeapfrogEnergy(t *testing.T) {
	cfg := Config{Theta: 0.3, Ncrit: 32, G: 1, Eps: 0.05,
		Adaptive: true, Eta: 0.05, DT: 0.01, DTMin: 0.001}
	sim, err := NewSimulation(Plummer(200, 1, 1, 1, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	steps, sum := 0, 0.0
	for sim.Time() < 0.5 {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		dt := sim.LastDT()
		if dt < cfg.DTMin || dt > cfg.DT {
			t.Fatalf("step %d: dt = %v outside [%v, %v]", steps, dt, cfg.DTMin, cfg.DT)
		}
		sum += dt
		steps++
	}
	if steps < 50 {
		t.Errorf("suspiciously few steps: %d", steps)
	}
	if sim.Time() != sum {
		t.Errorf("Time = %v, want Σ dt = %v", sim.Time(), sum)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 5e-3 {
		t.Errorf("adaptive energy drift = %v", rel)
	}
}

// TestAdaptiveStepReturnsDT takes one adaptive Step on an unprimed
// two-body system: the step must prime first (the criterion reads
// accelerations), pick a dt under the ceiling and advance the clock by it.
func TestAdaptiveStepReturnsDT(t *testing.T) {
	sim, err := NewSimulation(nbody.TwoBody(1, 1, 1, 1), Config{
		G: 1, Eps: 0.1, Adaptive: true, Eta: 0.1, DT: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if dt := sim.LastDT(); dt <= 0 || dt > 0.01 || sim.Time() != dt {
		t.Errorf("dt = %v, Time = %v", dt, sim.Time())
	}
	if !sim.Primed() {
		t.Error("adaptive Step left the simulation unprimed")
	}
}

// TestDenseIDsRequiredInEveryMode: the integrator keys its state by
// particle ID, so IDs that are not a permutation of [0, N) must be
// rejected at Prime whatever the timestep mode.
func TestDenseIDsRequiredInEveryMode(t *testing.T) {
	modes := map[string]Config{
		"fixed":    {G: 1, Eps: 0.05, DT: 0.005},
		"adaptive": {G: 1, Eps: 0.05, DT: 0.005, Adaptive: true},
		"blocks":   {G: 1, Eps: 0.05, Blocks: 3, DTMin: 0.00125},
	}
	breakIDs := map[string]func(s *System){
		"sparse":    func(s *System) { s.ID[3] = int64(s.N()) + 5 },
		"negative":  func(s *System) { s.ID[3] = -1 },
		"duplicate": func(s *System) { s.ID[3] = s.ID[4] },
	}
	for mode, cfg := range modes {
		for kind, breakID := range breakIDs {
			t.Run(mode+"/"+kind, func(t *testing.T) {
				s := Plummer(64, 1, 1, 1, 2)
				breakID(s)
				sim, err := NewSimulation(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.Prime(); err == nil {
					t.Error("Prime accepted non-dense particle IDs")
				}
				if err := sim.Step(); err == nil {
					t.Error("Step accepted non-dense particle IDs")
				}
			})
		}
	}
}

// TestBlockCollapseSavesForceEvals is the physics payoff test: a
// Plummer sphere with tight softening and criterion spreads across
// >= 4 rungs, conserves energy to 1e-3 over the run, and evaluates
// measurably fewer forces than a shared-dt run substepping at the same
// resolution would (active fraction strictly below 1).
func TestBlockCollapseSavesForceEvals(t *testing.T) {
	t.Parallel()
	s := Plummer(2000, 1, 1, 1, 3)
	sim, err := NewSimulation(s, Config{
		Theta: 0.5, Ncrit: 64, G: 1, Eps: 0.002,
		Blocks: 6, DTMin: 0.00005, Eta: 0.01, Engine: EngineHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, c := range sim.RungOccupancy() {
		if c > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Fatalf("criterion too loose for a rung hierarchy: occupancy %v", sim.RungOccupancy())
	}
	e0 := sim.Energy().Total()
	var activeI, substeps int64
	for step := 0; step < 20; step++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		activeI += sim.LastReport.ActiveI
		substeps += sim.LastReport.Substeps
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 1e-3 {
		t.Errorf("block-timestep energy drift = %v, want <= 1e-3", rel)
	}
	// Shared-dt at the same finest resolution would evaluate N particles
	// on each of the substeps; the hierarchy must do meaningfully better.
	shared := int64(sim.Sys.N()) * substeps
	if substeps <= 20 {
		t.Fatalf("only %d substeps over 20 blocks: hierarchy never subdivided", substeps)
	}
	ratio := float64(activeI) / float64(shared)
	if ratio >= 0.9 {
		t.Errorf("force evaluations %d of shared-dt %d (ratio %.3f): no active-set win", activeI, shared, ratio)
	}
	t.Logf("force-eval ratio vs shared dt_min: %.3f (%d substeps, occupancy %v)",
		ratio, substeps, sim.RungOccupancy())
	if f := sim.LastReport.ActiveFrac; !(f > 0 && f < 1) {
		t.Errorf("LastReport.ActiveFrac = %v, want in (0,1)", f)
	}
}

// TestSimulationCheckpointStore drives the Store-backed Checkpoint
// method: durable save, telemetry on the step report, and recovery via
// LatestValid.
func TestSimulationCheckpointStore(t *testing.T) {
	s := Plummer(128, 1, 1, 1, 3)
	sim, err := NewSimulation(s, Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sim.Checkpoint(store)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 2 || info.Bytes == 0 {
		t.Errorf("save info = %+v", info)
	}
	if sim.LastReport.CkptWrites != 1 || sim.LastReport.CkptBytes != info.Bytes {
		t.Errorf("checkpoint telemetry not folded into LastReport: %+v", sim.LastReport)
	}
	if sim.LastReport.Phases.Checkpoint <= 0 {
		t.Errorf("checkpoint phase seconds = %v", sim.LastReport.Phases.Checkpoint)
	}
	c, gen, err := store.LatestValid()
	if err != nil {
		t.Fatal(err)
	}
	if gen.Step != 2 || c.State.Step != 2 || !c.State.Primed {
		t.Errorf("latest valid = gen %+v state step %d primed %v", gen, c.State.Step, c.State.Primed)
	}
	if !reflect.DeepEqual(sim.Sys, c.Sys) {
		t.Error("stored particles differ from the simulation's")
	}
}
