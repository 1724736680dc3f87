package grape5

import (
	"math"
	"runtime"
	"testing"
)

// blockEngines enumerates the force pipelines the block scheduler must
// drive identically: the host walk, the guarded emulated board, and a
// two-shard cluster (the cluster exercises the deferred-scatter gather
// path for partially-active groups).
var blockEngines = []struct {
	name string
	cfg  func(c *Config)
}{
	{"host", func(c *Config) { c.Engine = EngineHost }},
	{"guarded", func(c *Config) { c.Engine = EngineGRAPE5; c.Guard = true }},
	{"cluster2", func(c *Config) { c.Engine = EngineGRAPE5; c.Guard = true; c.Shards = 2 }},
}

// requireMatchesFixedSeed runs a block configuration that must collapse
// to a single occupied rung and requires state, clock and counters to
// equal the golden of the same small case's fixed-dt run, recorded with
// the pre-unification integrate.Leapfrog (sim_modes_test.go). Fixed dt
// now runs on the block core too, so comparing two live runs would
// compare the core with itself.
func requireMatchesFixedSeed(t *testing.T, m modeCase) {
	t.Helper()
	want, ok := loadModeGolden(t)[m.name]
	if !ok {
		t.Fatalf("no fixed-dt golden %q", m.name)
	}
	if got := m.run(t); got != want {
		t.Fatalf("block run diverged from the fixed-dt leapfrog seed:\n got %+v\nwant %+v", got, want)
	}
}

// TestBlockSingleRungMatchesLeapfrog pins the determinism anchor at the
// simulation layer: with Blocks=1 every particle runs on rung 0 at
// dt = DTMin, the scheduler opens and closes the full set each substep,
// and the trajectory must be bitwise identical to the global leapfrog
// at DT = DTMin — for every engine, at serial and parallel GOMAXPROCS.
func TestBlockSingleRungMatchesLeapfrog(t *testing.T) {
	for _, eng := range blockEngines {
		for _, procs := range []int{1, 4} {
			t.Run(eng.name+"/procs="+string(rune('0'+procs)), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				block := modeFixed()
				block.Blocks, block.DTMin, block.DT, block.Eta = 1, block.DT, 0, 0.2
				eng.cfg(&block)
				requireMatchesFixedSeed(t, smallCase(eng.name, block))
			})
		}
	}
}

// TestBlockTopRungMatchesLeapfrog drives the deep-ladder degenerate
// case: four rung levels but an Eta so loose every particle assigns to
// the top rung, so each Step is one full-span substep. DTMin = DT/8 is
// exact in binary, so the span reconstructs DT bit-for-bit and the
// trajectory must match the fixed-dt leapfrog exactly.
func TestBlockTopRungMatchesLeapfrog(t *testing.T) {
	for _, eng := range blockEngines {
		t.Run(eng.name, func(t *testing.T) {
			block := modeFixed()
			block.Blocks, block.DTMin, block.DT, block.Eta = 4, block.DT/8, 0, 100
			eng.cfg(&block)
			m := smallCase(eng.name, block)
			requireMatchesFixedSeed(t, m)
			// The loose criterion really must have collapsed the ladder.
			sim, err := NewSimulation(Plummer(m.n, 1, 1, 1, m.seed), block)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if err := sim.Prime(); err != nil {
				t.Fatal(err)
			}
			occ := sim.RungOccupancy()
			if occ[len(occ)-1] != int64(sim.Sys.N()) {
				t.Fatalf("expected all particles on the top rung, got occupancy %v", occ)
			}
		})
	}
}

// TestBlockCollapseSavesForceEvals is the physics payoff test: a
// Plummer sphere with tight softening and criterion spreads across
// >= 4 rungs, conserves energy to 1e-3 over the run, and evaluates
// measurably fewer forces than a shared-dt run substepping at the same
// resolution would (active fraction strictly below 1).
func TestBlockCollapseSavesForceEvals(t *testing.T) {
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

// TestBlockCheckpointResumeBitwise closes the loop at the library
// layer: a block run checkpointed mid-flight and resumed must land
// bitwise on the uninterrupted trajectory (the e2e suite repeats this
// through os/exec kill; this covers the in-process state plumbing).
func TestBlockCheckpointResumeBitwise(t *testing.T) {
	cfg := Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.02,
		Blocks: 4, DTMin: 0.000625, Eta: 0.05, Engine: EngineHost}
	mk := func() *Simulation {
		sim, err := NewSimulation(Plummer(512, 1, 1, 1, 17), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	ref := mk()
	if err := ref.Run(8); err != nil {
		t.Fatal(err)
	}

	part := mk()
	if err := part.Run(4); err != nil {
		t.Fatal(err)
	}
	ck := ckptRoundTrip(t, part)
	if ck.Block == nil || ck.Block.Tick != 0 {
		t.Fatalf("mid-run block checkpoint = %+v, want synced block state", ck.Block)
	}
	resumed, err := ResumeSimulation(ck, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.Sys.N(); i++ {
		if ref.Sys.Pos[i] != resumed.Sys.Pos[i] || ref.Sys.Vel[i] != resumed.Sys.Vel[i] {
			t.Fatalf("particle %d diverged after resume", i)
		}
	}
}

// TestBlockConfigValidation pins the Config-level mode rules.
func TestBlockConfigValidation(t *testing.T) {
	s := Plummer(64, 1, 1, 1, 2)
	bad := []Config{
		{Blocks: 4, DTMin: 0.001, Adaptive: true}, // mutually exclusive
		{Blocks: 4},                                 // DTMin required
		{Blocks: 32, DTMin: 0.001},                  // ladder too deep
		{Blocks: 4, DTMin: 0.001, DT: 0.005},        // DT != span
		{Blocks: 4, DTMin: 0.001, Engine: EnginePM}, // PM has no active path
	}
	for i, cfg := range bad {
		if _, err := NewSimulation(s, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// DT equal to the exact span is accepted.
	if _, err := NewSimulation(s, Config{Blocks: 4, DTMin: 0.000625, DT: 0.005, G: 1, Eps: 0.05}); err != nil {
		t.Errorf("DT == span rejected: %v", err)
	}
}
