package grape5

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/vec"
)

func allocTestSystem(n int) *nbody.System {
	r := rng.New(1)
	s := nbody.New(n)
	for i := 0; i < n; i++ {
		x, y, z := r.InBall()
		s.Pos[i] = vec.V3{X: x, Y: y, Z: z}
		s.Mass[i] = 1.0 / float64(n)
	}
	return s
}

// TestStepAllocs is the allocation-regression gate of the arena
// pipeline: after warmup, a host-engine Step must run its whole
// build->group->walk path on reused scratch. At this size the seed
// revision allocated ~2.9 MB per step (few objects, but the full key /
// order / node / list working set every step); the arena pipeline
// brought that to ~9 KB. The byte budget pins a >=10x drop against the
// seed with margin; the object budget catches per-group or per-node
// leaks that stay small in bytes.
//
// The object budgets of the three TestStepAllocs* gates are set from
// measurement, not headroom: 20 runs each at GOMAXPROCS 1 and 4, plain
// and under the race detector (which `go test -race ./...` must also
// pass). One allocation per group — core.walkWorker's Request declared
// inside its loop instead of hoisted — measures 80 / 74 / 318 and must
// fail all three.
func TestStepAllocs(t *testing.T) {
	const n = 8192
	// Seed baseline at n=8192, Workers=4, Ncrit=500 (commit 4a283d2,
	// measured via runtime/metrics): 2,972,624 bytes/step.
	const seedBytesPerStep = 2_900_000
	sys := allocTestSystem(n)
	// Workers is set explicitly: AllocsPerRun forces GOMAXPROCS=1, and
	// Workers=0 would resolve to 1, hiding the per-worker scratch path.
	sim, err := NewSimulation(sys, Config{
		DT: 1e-3, G: 1, Eps: 0.01, Ncrit: 500, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}

	var bytes int64
	allocs := testing.AllocsPerRun(5, func() {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		bytes += sim.LastReport.BytesAlloc
	})
	// AllocsPerRun ran the function 5 measured times plus one warmup.
	bytesPerStep := bytes / 6
	if bytesPerStep > seedBytesPerStep/10 {
		t.Fatalf("steady-state Step allocates %d bytes, budget %d (10x under the seed's ~%d)",
			bytesPerStep, seedBytesPerStep/10, seedBytesPerStep)
	}
	// Object-count residue: tree header, stats header, telemetry
	// snapshot, goroutine spawns — 16 on every run (seed: ~235).
	const budget = 40
	if allocs > budget {
		t.Fatalf("steady-state Step allocates %.0f objects/run, budget %d", allocs, budget)
	}
	t.Logf("steady-state Step: %.1f allocs/run, %d bytes/step (budgets %d, %d)",
		allocs, bytesPerStep, budget, seedBytesPerStep/10)
}

// TestStepFootprint is the live-heap gate of the step pipeline: a
// primed and stepped host Simulation at N = 65536 (n_crit 16, the
// host_plummer64k configuration) may keep at most footprintBudget bytes
// of heap per particle, the System included. The state it holds is the
// System (96 B/particle), the permutation's visit marks (1), the one
// node arena (≈ 27), Morton keys (8) and two int32 sort orders (8) and
// the groups with their boxes (≈ 16): measured 159 B/particle at
// GOMAXPROCS 1 and 4, plain and under the race detector. The revision
// that permuted through one spare array per element type, kept a
// sorted copy of the keys and sorted int orders measured 215 and must
// fail; so must the ones with a second, per-task node arena (244) and
// with a second copy of every System array and 136-byte nodes (365).
func TestStepFootprint(t *testing.T) {
	const n = 65536
	const footprintBudget = 175
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := NewSimulation(Plummer(n, 1, 1, 1, 1), Config{
		DT: 5e-3, G: 1, Eps: 0.02, Ncrit: 16, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sim)
	perParticle := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	if perParticle > footprintBudget {
		t.Fatalf("primed Simulation keeps %d B/particle of live heap, budget %d", perParticle, footprintBudget)
	}
	t.Logf("primed Simulation: %d B/particle of live heap (budget %d)", perParticle, footprintBudget)
}

// TestStepAllocsGuarded extends the allocation gate to the GRAPE path,
// guarded and with the guard off: the SoA request staging (walk J-list,
// guard's probe reference and AoS gather scratch, engine readback
// buffers) must all reach steady state. The guard adds per-batch probe
// work but no per-batch allocation: its staging and evaluation scratch
// belong to the batch in flight and are recycled through the engine's
// free list, so there are as many sets as walk workers (Workers bounds
// it), each grown once and reused.
func TestStepAllocsGuarded(t *testing.T) {
	for _, guard := range []bool{true, false} {
		t.Run(fmt.Sprintf("guard=%v", guard), func(t *testing.T) {
			const n = 4096
			sys := allocTestSystem(n)
			sim, err := NewSimulation(sys, Config{
				DT: 1e-3, G: 1, Eps: 0.01, Ncrit: 256, Workers: 2,
				Engine: EngineGRAPE5, Guard: guard,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Prime(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}

			var bytes int64
			allocs := testing.AllocsPerRun(5, func() {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
				bytes += sim.LastReport.BytesAlloc
			})
			bytesPerStep := bytes / 6
			// The emulated hardware's own staging dominates the residue; the
			// budget pins the GRAPE step at the same order as the host step
			// (a per-batch or per-particle leak at n=4096 would add >100 KB).
			const byteBudget = 64_000
			if bytesPerStep > byteBudget {
				t.Fatalf("steady-state Step allocates %d bytes, budget %d", bytesPerStep, byteBudget)
			}
			// 10 on every run.
			const budget = 26
			if allocs > budget {
				t.Fatalf("steady-state Step allocates %.0f objects/run, budget %d", allocs, budget)
			}
			t.Logf("steady-state Step: %.1f allocs/run, %d bytes/step (budgets %d, %d)",
				allocs, bytesPerStep, budget, byteBudget)
		})
	}
}

// TestStepAllocsCluster extends the allocation gate to the sharded
// cluster (K = 2 guarded shards) with the guarded step's budgets and
// warm-up: each batch runs in the walk worker that built it, on one
// shard's guard, so the cluster stages nothing of its own.
func TestStepAllocsCluster(t *testing.T) {
	const n = 4096
	sys := allocTestSystem(n)
	sim, err := NewSimulation(sys, Config{
		DT: 1e-3, G: 1, Eps: 0.01, Ncrit: 256, Workers: 2,
		Engine: EngineGRAPE5, Guard: true, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}

	var bytes int64
	allocs := testing.AllocsPerRun(5, func() {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		bytes += sim.LastReport.BytesAlloc
	})
	bytesPerStep := bytes / 6
	const byteBudget = 64_000
	if bytesPerStep > byteBudget {
		t.Fatalf("cluster steady-state Step allocates %d bytes, budget %d", bytesPerStep, byteBudget)
	}
	const budget = 26
	if allocs > budget {
		t.Fatalf("cluster steady-state Step allocates %.0f objects/run, budget %d", allocs, budget)
	}
	t.Logf("cluster steady-state Step: %.1f allocs/run, %d bytes/step (budgets %d, %d)",
		allocs, bytesPerStep, budget, byteBudget)

	// The maximum that drifts, which the stationary sphere above never
	// shows: every list one source longer each step, as cluster_cosmo17k's
	// longest is while structure forms. Staging that is made to fit
	// re-makes the guard's gather and quantise scratch on every one of
	// the 40 steps; grown by append's rule a buffer is re-made O(log)
	// times — here once, at 1025 sources, where all of them outgrow the
	// size class that 1000 was rounded up to.
	t.Run("drifting maximum", func(t *testing.T) {
		const ni, nj0, batches, steps = 64, 1000, 8, 40
		cl, err := g5.NewCluster(g5.ClusterConfig{Shards: 2, Board: g5.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.SetScale(-2, 2); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetEps(0.01); err != nil {
			t.Fatal(err)
		}
		r := rng.New(2)
		reqs := make([]core.Request, batches)
		for b := range reqs {
			req := &reqs[b]
			req.IPos, req.Acc, req.Pot = make([]vec.V3, ni), make([]vec.V3, ni), make([]float64, ni)
			for i := range req.IPos {
				x, y, z := r.InBall()
				req.IPos[i] = vec.V3{X: x, Y: y, Z: z}
			}
			for j := 0; j < nj0+steps; j++ { // the caller's own list: at full capacity from the start
				x, y, z := r.InBall()
				req.J.Append(x, y, z, 1.0/nj0)
			}
		}
		step := func(nj int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for b := range reqs {
				req := &reqs[b]
				req.J.X, req.J.Y, req.J.Z, req.J.M, req.J.N = req.J.X[:nj], req.J.Y[:nj], req.J.Z[:nj], req.J.M[:nj], nj
				cl.Accumulate(req)
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		for w := 0; w < 4; w++ { // every staging set meets nj0
			step(nj0)
		}
		remade := 0
		for s := 1; s <= steps; s++ {
			if bytes := step(nj0 + s); bytes >= 8*nj0 { // one buffer of the shortest kind
				remade++
				t.Logf("step %d (%d sources): %d bytes", s, nj0+s, bytes)
			}
		}
		if remade > 4 {
			t.Fatalf("%d of %d steps re-made a staging buffer as the lists grew by one source a step, want at most 4", remade, steps)
		}
	})
}

// TestStepAllocsBlocks extends the allocation gate to block timesteps:
// a steady-state block Step runs many substeps, each with an active-set
// walk whose gather segments, rung partials and active masks must all
// live in reused scratch. The budgets are per-Step (i.e. per block of
// substeps), so a per-substep leak shows up multiplied.
func TestStepAllocsBlocks(t *testing.T) {
	const n = 8192
	sys := allocTestSystem(n)
	sim, err := NewSimulation(sys, Config{
		G: 1, Eps: 0.01, Ncrit: 500, Workers: 4,
		Blocks: 4, DTMin: 5e-4, Eta: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if sim.LastReport.Substeps < 2 {
		t.Fatalf("only %d substeps per block: active-set path not exercised", sim.LastReport.Substeps)
	}

	var bytes int64
	allocs := testing.AllocsPerRun(5, func() {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		bytes += sim.LastReport.BytesAlloc
	})
	bytesPerStep := bytes / 6
	// Same order as the fixed-dt host budget: the block machinery may
	// rebuild the tree on some substeps but must not allocate per
	// particle or per gather segment in steady state.
	const byteBudget = 400_000
	if bytesPerStep > byteBudget {
		t.Fatalf("steady-state block Step allocates %d bytes, budget %d", bytesPerStep, byteBudget)
	}
	// 62 plain and under the race detector, now that each walk worker
	// reuses one gather segment grown by append's rule (77-88 and 108-173
	// while segments were made to fit each group).
	const budget = 250
	if allocs > budget {
		t.Fatalf("steady-state block Step allocates %.0f objects/run, budget %d", allocs, budget)
	}
	t.Logf("steady-state block Step: %.1f allocs/run, %d bytes/step over %d substeps (budgets %d, %d)",
		allocs, bytesPerStep, sim.LastReport.Substeps, budget, byteBudget)
}

// TestStepReportBytesAlloc checks that the telemetry layer reports the
// per-step allocation counter and that it is sane in steady state.
func TestStepReportBytesAlloc(t *testing.T) {
	sys := allocTestSystem(4096)
	sim, err := NewSimulation(sys, Config{
		DT: 1e-3, G: 1, Eps: 0.01, Ncrit: 500, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	if sim.LastReport.BytesAlloc <= 0 {
		t.Fatalf("priming step reported BytesAlloc=%d, want > 0 (cold path allocates arenas)", sim.LastReport.BytesAlloc)
	}
	for i := 0; i < 4; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if sim.LastReport.BytesAlloc < 0 {
		t.Fatalf("steady-state BytesAlloc=%d, want >= 0", sim.LastReport.BytesAlloc)
	}
	// Steady state must be far below one particle-array's worth
	// (4096 * 24 bytes would already signal a lost arena).
	if sim.LastReport.BytesAlloc > 1<<20 {
		t.Fatalf("steady-state Step allocated %d bytes, want < 1 MiB", sim.LastReport.BytesAlloc)
	}
}

// ExampleStepReport_tBuild shows the derived t_build field.
func ExampleStepReport_tBuild() {
	r := obs.StepReport{}
	r.Phases.MortonSort = 0.5
	r.Phases.TreeBuild = 1.5
	r.TBuild = r.Phases.MortonSort + r.Phases.TreeBuild
	fmt.Println(r.TBuild)
	// Output: 2
}
