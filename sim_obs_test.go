package grape5

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestGuardedGRAPEEnergyRegression is the energy-conservation
// regression gate for the full guarded offload pipeline: Plummer
// sphere, modified treecode, emulated GRAPE-5 behind the fault-tolerant
// guard, leapfrog. The seed and step count are golden; the tolerance
// holds ~20x headroom over the observed drift (~1e-4 at this
// resolution) without masking an integrator or force-pipeline
// regression — a sign error or dropped group blows through it at once.
func TestGuardedGRAPEEnergyRegression(t *testing.T) {
	const (
		seed  = 20260805
		steps = 64
		tol   = 0.002
	)
	s := Plummer(1024, 1, 1, 1, seed)
	sim, err := NewSimulation(s, Config{
		Theta: 0.6, Ncrit: 128, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	if e0 >= 0 {
		t.Fatalf("unbound initial state: E = %v", e0)
	}
	if err := sim.Run(steps); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Energy().Total()
	rel := math.Abs(e1-e0) / math.Abs(e0)
	if rel > tol {
		t.Errorf("|dE/E| = %v over %d steps, tolerance %v", rel, steps, tol)
	}
	// The guard must have been exercised (probe checks on every batch)
	// without eating into correctness: a fault-free run recovers nothing.
	rec := sim.Recovery()
	if rec.Checks == 0 {
		t.Error("guard ran no acceptance checks")
	}
	if sim.LastReport.Fallbacks != 0 {
		t.Errorf("fault-free run fell back to host %d times", sim.LastReport.Fallbacks)
	}
}

// TestStepTelemetry checks that every Step emits a complete
// time-balance report: host phases measured, GRAPE pipeline and
// transfer phases in simulated seconds, counters matching the
// treecode's own statistics.
func TestStepTelemetry(t *testing.T) {
	s := Plummer(512, 1, 1, 1, 21)
	sim, err := NewSimulation(s, Config{
		Theta: 0.7, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	prime := sim.LastReport
	if prime.Step != 0 {
		t.Errorf("prime telemetry step = %d", prime.Step)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	r := sim.LastReport
	if r.Step != 1 {
		t.Errorf("step telemetry step = %d", r.Step)
	}
	if r.WallSeconds <= 0 {
		t.Error("no wall time")
	}
	if r.THost <= 0 || r.Phases.TreeBuild <= 0 || r.Phases.GroupWalk <= 0 {
		t.Errorf("host phases missing: %+v", r.Phases)
	}
	if r.Phases.MortonSort <= 0 {
		t.Errorf("morton sort span missing: %+v", r.Phases)
	}
	if r.TGrape <= 0 || r.TComm <= 0 {
		t.Errorf("simulated hardware phases missing: grape=%v comm=%v", r.TGrape, r.TComm)
	}
	if r.Phases.Guard <= 0 {
		t.Error("guarded run recorded no guard overhead")
	}
	if r.Interactions != sim.LastStats.Interactions {
		t.Errorf("telemetry interactions %d != stats %d", r.Interactions, sim.LastStats.Interactions)
	}
	if r.Groups != int64(sim.LastStats.Groups) {
		t.Errorf("telemetry groups %d != stats %d", r.Groups, sim.LastStats.Groups)
	}
	if r.Flops <= 0 || r.Bytes <= 0 {
		t.Errorf("hardware counters missing: flops=%g bytes=%d", r.Flops, r.Bytes)
	}
	// A leapfrog step runs exactly one force evaluation, so the
	// telemetry must not double-count against the previous step.
	if r.Interactions >= 2*prime.Interactions {
		t.Errorf("telemetry accumulating across steps: %d after %d", r.Interactions, prime.Interactions)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterStepReportsForceEval: on a cluster the walk only stages
// batches, so the emulation runs on the shard workers; their time must
// come back as force_eval (Σ worker time, like the walk's), where a
// GRAPE step spends most of its wall-clock.
func TestClusterStepReportsForceEval(t *testing.T) {
	s := Plummer(4096, 1, 1, 1, 5)
	sim, err := NewSimulation(s, Config{
		Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.02, DT: 0.005,
		Engine: EngineGRAPE5, Shards: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sim.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	r := sim.LastReport
	if r.Phases.ForceEval < 0.5*r.WallSeconds {
		t.Errorf("K=2 step: force_eval %.4f s of a %.4f s step, want ≥ half", r.Phases.ForceEval, r.WallSeconds)
	}
}

// TestConcurrentSimulationsTelemetry runs independent simulations in
// parallel under -race: each owns its observer, and the parallel group
// walk inside each must fold spans into it without races.
func TestConcurrentSimulationsTelemetry(t *testing.T) {
	var wg sync.WaitGroup
	reports := make([]obs.StepReport, 4)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := Plummer(256, 1, 1, 1, uint64(30+i))
			sim, err := NewSimulation(s, Config{
				Theta: 0.7, Ncrit: 32, G: 1, Eps: 0.05, DT: 0.005,
				Engine: EngineGRAPE5, Guard: true, Workers: 4,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sim.Run(3); err != nil {
				t.Error(err)
				return
			}
			reports[i] = sim.LastReport
		}(i)
	}
	wg.Wait()
	for i, r := range reports {
		if r.Interactions == 0 || r.THost <= 0 {
			t.Errorf("sim %d: empty telemetry: %+v", i, r)
		}
	}
}
