package main

import (
	"fmt"
	"sync"
	"time"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/octree"
	"repro/internal/vec"
)

// replayBudget bounds the wall time spent timing one layer in isolation.
const replayBudget = 200 * time.Millisecond

// timeReps runs f until the budget is spent (at least three times) and
// returns the median duration in seconds and the repetition count.
func timeReps(f func() error) (float64, int, error) {
	var xs []float64
	var spent time.Duration
	for len(xs) < 3 || spent < replayBudget {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		spent += d
		xs = append(xs, d.Seconds())
	}
	return median(xs), len(xs), nil
}

// replayLayers times each layer alone on sys, the state captured at the
// counted prefix of the traced run, so that the inputs of every replay
// depend on (workload, seed) only.
func replayLayers(ms *metricSet, sys *nbody.System, cfg grape5.Config, store *ckpt.Store) error {
	n := sys.N()

	// morton: key generation and the radix sort, as the builder calls them.
	cube := sys.Bounds().Cube()
	var keys []morton.Key
	d, reps, _ := timeReps(func() error { keys = morton.KeysInto(keys, sys.Pos, cube); return nil })
	ms.set("morton.keys_s", d, reps)
	a, b := make([]int, n), make([]int, n)
	d, reps, _ = timeReps(func() error { morton.SortOrderRadixInto(keys, a, b); return nil })
	ms.set("morton.sort_s", d, reps)

	// octree: a full Builder.Build (which contains the sort above), the
	// group scan of a fresh tree, and the centre-of-mass refresh.
	work := sys.Clone()
	builder := octree.NewBuilder(octree.BuilderOptions{Workers: cfg.Workers})
	var tree *octree.Tree
	var groupWall []float64
	nGroups := 0
	d, reps, err := timeReps(func() error {
		var err error
		if tree, err = builder.Build(work); err != nil {
			return err
		}
		t0 := time.Now()
		nGroups = len(tree.Groups(cfg.Ncrit))
		groupWall = append(groupWall, time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("octree.build_s", d-median(groupWall), reps)
	ms.set("octree.groups_s", median(groupWall), reps)
	ms.set("octree.nodes", float64(tree.NumNodes()), 1)
	ms.set("octree.groups", float64(nGroups), 1)
	d, reps, _ = timeReps(func() error { tree.Refresh(); return nil })
	ms.set("octree.refresh_s", d, reps)

	// core: the walk alone, through an engine that only counts. The
	// active variant masks every fourth particle ID and so takes the
	// refresh-and-gather path of the block-timestep substeps.
	opt := core.Options{Theta: cfg.Theta, Ncrit: cfg.Ncrit, G: cfg.G, Eps: cfg.Eps, Workers: cfg.Workers}
	tc := core.New(opt, &core.CountEngine{})
	walk := func(active []bool, nActive int) (float64, int, error) {
		var xs []float64
		_, reps, err := timeReps(func() error {
			t0 := time.Now()
			st, err := tc.ComputeForcesActive(work, active, nActive)
			if err != nil {
				return err
			}
			xs = append(xs, (time.Since(t0) - st.BuildTime).Seconds())
			return nil
		})
		return median(xs), reps, err
	}
	if d, reps, err = walk(nil, 0); err != nil {
		return err
	}
	ms.set("core.walk_only_s", d, reps)
	mask := make([]bool, n)
	nActive := 0
	for id := 0; id < n; id += 4 {
		mask[id] = true
		nActive++
	}
	if d, reps, err = walk(mask, nActive); err != nil {
		return err
	}
	ms.set("core.walk_active_s", d, reps)

	// The engines, each on the step's median-sized batch.
	req, err := captureMedianBatch(work, opt)
	if err != nil {
		return err
	}
	pairs := float64(len(req.IPos)) * float64(req.J.N)
	// Small batches are repeated inside one timing so the clock's
	// resolution does not show.
	inner := int(2e6/pairs) + 1
	perPair := func(f func()) (float64, int) {
		d, reps, _ := timeReps(func() error {
			for k := 0; k < inner; k++ {
				f()
			}
			return nil
		})
		return d * 1e9 / (pairs * float64(inner)), reps * inner
	}
	if cfg.Engine == grape5.EngineHost {
		he := &core.HostEngine{G: cfg.G, Eps: cfg.Eps}
		v, reps := perPair(func() { he.Accumulate(req) })
		ms.set("hostk.p2p_ns_per_interaction", v, reps)
	} else {
		if err := replayG5(ms, work, cfg, req, perPair); err != nil {
			return err
		}
	}

	// ckpt: read and validate the newest generation.
	d, reps, err = timeReps(func() error { _, _, err := store.LatestValid(); return err })
	if err != nil {
		return err
	}
	ms.set("ckpt.read_s", d, reps)
	return nil
}

// replayG5 times the three depths of the offload path on one batch: the
// bare System.Compute, the staging Engine around it, and the guarded
// engine around that.
func replayG5(ms *metricSet, sys *nbody.System, cfg grape5.Config, req *core.Request,
	perPair func(func()) (float64, int)) error {
	hw, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		return err
	}
	if err := hw.SetEps(cfg.Eps); err != nil {
		return err
	}
	lo, hi := scaleWindow(sys)
	if err := hw.SetScale(lo, hi); err != nil {
		return err
	}
	nj := req.J.N
	jpos := make([]vec.V3, nj)
	for j := range jpos {
		jpos[j] = vec.V3{X: req.J.X[j], Y: req.J.Y[j], Z: req.J.Z[j]}
	}
	var cerr error
	compute, reps := perPair(func() {
		//lint:ignore g5contract the bare System.Compute is the layer being timed; no engine runs on hw until the timing ends
		if err := hw.Compute(req.IPos, jpos, req.J.M[:nj], req.Acc, req.Pot); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return fmt.Errorf("g5 replay: %w", cerr)
	}
	ms.set("g5.compute_ns_per_interaction", compute, reps)

	eng := g5.NewEngine(hw, cfg.G)
	engine, reps := perPair(func() { eng.Accumulate(req) })
	ms.set("g5.engine_ns_per_interaction", engine, reps)

	guard := g5.NewGuardedEngine(hw, cfg.G, cfg.GuardPolicy)
	guarded, reps := perPair(func() { guard.Accumulate(req) })
	ms.set("g5.guard_ns_per_interaction", guarded, reps)
	ms.set("g5.guard_overhead_frac", guarded/engine-1, reps)
	return nil
}

// captureEngine records the work of every batch on a first pass, then on
// a second pass keeps a copy of the batch whose work is nearest target.
type captureEngine struct {
	mu     sync.Mutex
	works  []float64
	target float64
	best   *core.Request
	diff   float64
}

func (e *captureEngine) Accumulate(req *core.Request) {
	work := float64(len(req.IPos)) * float64(req.J.N)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.target == 0 {
		e.works = append(e.works, work)
		return
	}
	diff := work - e.target
	if diff < 0 {
		diff = -diff
	}
	if e.best != nil && diff >= e.diff {
		return
	}
	ni := len(req.IPos)
	c := &core.Request{
		IPos: append([]vec.V3(nil), req.IPos...),
		Acc:  make([]vec.V3, ni),
		Pot:  make([]float64, ni),
	}
	c.J.CopyFrom(&req.J)
	e.best, e.diff = c, diff
}

// captureMedianBatch returns a private copy of the force evaluation's
// median-sized Request (by pair count).
func captureMedianBatch(sys *nbody.System, opt core.Options) (*core.Request, error) {
	ce := &captureEngine{}
	tc := core.New(opt, ce)
	if _, err := tc.ComputeForces(sys); err != nil {
		return nil, err
	}
	ce.target = median(ce.works)
	if _, err := tc.ComputeForces(sys); err != nil {
		return nil, err
	}
	if ce.best == nil {
		return nil, fmt.Errorf("no batch captured")
	}
	return ce.best, nil
}
