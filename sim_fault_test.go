package grape5

import (
	"math"
	"testing"

	"repro/internal/g5"
)

// TestSimulationGuardedBoardLoss is the headline fault-tolerance
// scenario: a two-board run loses board 2 mid-run. The guarded engine
// must detect the corruption, exclude the board, and finish the run on
// the survivor with forces still inside the hardware's ~0.3% envelope.
func TestSimulationGuardedBoardLoss(t *testing.T) {
	hwCfg := g5.DefaultConfig()
	hwCfg.Fault = &g5.FaultModel{Seed: 3, FailBoard: 2, FailAfterRuns: 40, FailSlot: 7}
	cfg := Config{
		Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, GRAPE: hwCfg, Guard: true,
	}
	sim, err := NewSimulation(Plummer(800, 1, 1, 1, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}

	rec := sim.Recovery()
	if rec.ExcludedBoards != 1 {
		t.Fatalf("excluded boards = %d, want 1 (recovery %s)", rec.ExcludedBoards, rec)
	}
	if rec.HostOnly {
		t.Errorf("run abandoned hardware entirely: %s", rec)
	}
	if n := sim.Cluster().ActiveBoards(); n != 1 {
		t.Errorf("active boards = %d, want 1", n)
	}
	if fs := sim.FaultStats(); fs.StuckPipeCalls == 0 {
		t.Errorf("fault injector never fired: %+v", fs)
	}

	// Force accuracy at the final positions: recompute with the float64
	// host engine on a clone and compare by particle ID.
	refCfg := cfg
	refCfg.Engine = EngineHost
	refCfg.Guard = false
	refCfg.GRAPE = g5.Config{}
	ref, err := NewSimulation(sim.Sys.Clone(), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Prime(); err != nil {
		t.Fatal(err)
	}
	refAcc := make(map[int64]Vec3, ref.Sys.N())
	for i := range ref.Sys.ID {
		refAcc[ref.Sys.ID[i]] = ref.Sys.Acc[i]
	}
	var num, den float64
	for i := range sim.Sys.ID {
		ra := refAcc[sim.Sys.ID[i]]
		num += sim.Sys.Acc[i].Sub(ra).Norm2()
		den += ra.Norm2()
	}
	if rms := math.Sqrt(num / den); rms > 0.01 {
		t.Errorf("final-snapshot RMS force error = %.3g, want < 1%%", rms)
	}
}

// TestSimulationGuardedAllBoardsLost kills the only board at the first
// hardware call: every batch must fall back to the host engine, the
// guard must stop touching the hardware, and the whole run must be
// bitwise identical to a plain EngineHost run.
func TestSimulationGuardedAllBoardsLost(t *testing.T) {
	hwCfg := g5.DefaultConfig()
	hwCfg.Boards = 1
	hwCfg.Fault = &g5.FaultModel{Seed: 9, FailBoard: 1, FailAfterRuns: 0, FailSlot: 3}
	cfg := Config{
		Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, GRAPE: hwCfg, Guard: true,
		GuardPolicy: g5.GuardPolicy{MaxRetries: 1, FallbackAfter: 1},
	}
	run := func(c Config) *Simulation {
		sim, err := NewSimulation(Plummer(400, 1, 1, 1, 6), c)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Prime(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(10); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim := run(cfg)

	rec := sim.Recovery()
	if !rec.HostOnly {
		t.Fatalf("guard did not abandon dead hardware: %s", rec)
	}
	if rec.FallbackBatches == 0 {
		t.Errorf("no fallback batches recorded: %s", rec)
	}
	if n := sim.Cluster().ActiveBoards(); n != 0 {
		t.Errorf("active boards = %d, want 0", n)
	}

	hostCfg := cfg
	hostCfg.Engine = EngineHost
	hostCfg.Guard = false
	hostCfg.GRAPE = g5.Config{}
	hostCfg.GuardPolicy = g5.GuardPolicy{}
	host := run(hostCfg)

	hostAcc := make(map[int64]Vec3, host.Sys.N())
	hostPos := make(map[int64]Vec3, host.Sys.N())
	for i := range host.Sys.ID {
		hostAcc[host.Sys.ID[i]] = host.Sys.Acc[i]
		hostPos[host.Sys.ID[i]] = host.Sys.Pos[i]
	}
	for i := range sim.Sys.ID {
		id := sim.Sys.ID[i]
		if sim.Sys.Acc[i] != hostAcc[id] {
			t.Fatalf("particle %d: fallback acc %v != host acc %v", id, sim.Sys.Acc[i], hostAcc[id])
		}
		if sim.Sys.Pos[i] != hostPos[id] {
			t.Fatalf("particle %d: fallback pos %v != host pos %v", id, sim.Sys.Pos[i], hostPos[id])
		}
	}
}
