package grape5

import (
	"math"
	"slices"
	"testing"

	"repro/internal/g5"
)

// TestSimulationClusterMatchesSingle: a Shards=2 simulation must evolve
// bitwise the same trajectory as the guarded single-board run, which is
// a 1-shard cluster — the cluster shards along the i-axis only, so no
// reduction order changes and the integrator sees identical forces
// every step.
func TestSimulationClusterMatchesSingle(t *testing.T) {
	mk := func(shards int) *Simulation {
		s := Plummer(256, 1, 1, 1, 9)
		sim, err := NewSimulation(s, Config{
			Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
			Engine: EngineGRAPE5, Guard: true, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	single, clustered := mk(0), mk(2)
	defer single.Close()
	defer clustered.Close()
	for _, sim := range []*Simulation{single, clustered} {
		if err := sim.Prime(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	if cl := clustered.Cluster(); cl == nil || cl.Shards() != 2 {
		t.Fatal("Shards=2 simulation did not build a 2-shard cluster")
	}
	if cl := single.Cluster(); cl == nil || cl.Shards() != 1 {
		t.Fatal("guarded single-board simulation did not build a 1-shard cluster")
	}
	for i := 0; i < single.Sys.N(); i++ {
		if single.Sys.Pos[i] != clustered.Sys.Pos[i] || single.Sys.Vel[i] != clustered.Sys.Vel[i] {
			t.Fatalf("particle %d diverged after 3 steps: pos %v vs %v",
				i, single.Sys.Pos[i], clustered.Sys.Pos[i])
		}
	}
}

// TestSimulationClusterTelemetry: a clustered run must report aggregate
// hardware counters, summed recovery activity and a critical-path
// hardware time strictly shorter than the aggregate (two boards really
// ran concurrently), and survive a double Close.
func TestSimulationClusterTelemetry(t *testing.T) {
	s := Plummer(512, 1, 1, 1, 5)
	sim, err := NewSimulation(s, Config{
		Theta: 0.6, Ncrit: 256, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.02 {
		t.Errorf("clustered GRAPE energy drift = %v", rel)
	}

	cl := sim.Cluster()
	c := sim.HardwareCounters()
	if c.Interactions == 0 || c.Runs == 0 {
		t.Errorf("cluster hardware idle: %+v", c)
	}
	loads := cl.ShardInteractions()
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum == 0 || loads[0] == 0 || loads[1] == 0 {
		t.Errorf("shard loads %v: a board sat idle for the whole run", loads)
	}
	crit, agg := cl.CriticalHWSeconds(), c.HWSeconds()
	if !(crit > 0) || !(crit < agg) {
		t.Errorf("critical-path hw time %v not in (0, aggregate %v)", crit, agg)
	}
	rec := sim.Recovery()
	if rec.Checks == 0 {
		t.Errorf("clustered run recorded no acceptance checks: %v", rec)
	}
	if err := sim.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sim.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClusterPlacementDeterministic: at Workers = 1 which shard runs a
// batch depends only on the batch sequence, so two faulted K = 2 runs
// draw the same faults on the same boards and agree on everything —
// trajectory, recovery, fault tallies and per-shard loads.
func TestClusterPlacementDeterministic(t *testing.T) {
	run := func() *Simulation {
		hwCfg := g5.DefaultConfig()
		hwCfg.Fault = &g5.FaultModel{Seed: 11, TransientRate: 0.05, BusErrorRate: 0.05,
			FailBoard: 2, FailAfterRuns: 30, FailSlot: 5}
		sim, err := NewSimulation(Plummer(512, 1, 1, 1, 3), Config{
			Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
			Engine: EngineGRAPE5, GRAPE: hwCfg, Shards: 2, Workers: 1,
			GuardPolicy: g5.GuardPolicy{BackoffBase: 1, BackoffMax: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(8); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	a, b := run(), run()
	for i := range a.Sys.Pos {
		if a.Sys.Pos[i] != b.Sys.Pos[i] || a.Sys.Vel[i] != b.Sys.Vel[i] {
			t.Fatalf("particle %d diverged between identical runs", i)
		}
	}
	if ra, rb := a.Recovery(), b.Recovery(); ra != rb {
		t.Errorf("recovery %v vs %v", ra, rb)
	} else if ra.ExcludedBoards == 0 || ra.Retries == 0 {
		t.Errorf("fault model never exercised the guard: %v", ra)
	}
	if fa, fb := a.FaultStats(), b.FaultStats(); fa != fb {
		t.Errorf("fault stats %+v vs %+v", fa, fb)
	}
	if la, lb := a.Cluster().ShardInteractions(), b.Cluster().ShardInteractions(); !slices.Equal(la, lb) {
		t.Errorf("shard interactions %v vs %v", la, lb)
	}
}
