package main

import (
	"errors"
	"fmt"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/integrate"
	"repro/internal/nbody"
	"repro/internal/obs"
)

// tracedEngine is the core.BatchedEngine the assembled pipeline hands to
// the treecode: it forwards every batch to the real engine and records a
// span around each Accumulate and Flush. It always offers Flush, so the
// treecode's barrier is traced whether or not the inner engine defers.
type tracedEngine struct {
	inner  core.Engine
	tr     *tracer
	parent int32 // the compute span in flight; set between force calls
}

func (e *tracedEngine) Accumulate(req *core.Request) {
	start := e.tr.now()
	e.inner.Accumulate(req)
	e.tr.leaf(spanAccumulate, e.parent, start, len(req.IPos), req.J.N)
}

func (e *tracedEngine) Flush() error {
	be, ok := e.inner.(core.BatchedEngine)
	if !ok {
		return nil
	}
	id := e.tr.begin(spanFlush, e.parent)
	err := be.Flush()
	e.tr.end(id)
	return err
}

// pipeline is the simulation assembled from the layers' public
// constructors — the same wiring as grape5.NewSimulation, with benchmark
// spans at every layer boundary. That it is the same program is not
// argued but checked: its trajectory checksum must equal the facade
// run's bit for bit.
type pipeline struct {
	sys *nbody.System
	cfg grape5.Config
	tr  *tracer

	ob      *obs.Observer
	tc      *core.Treecode
	eng     *tracedEngine
	hw      *g5.System
	guard   *g5.GuardedEngine
	cluster *g5.Cluster
	lf      *integrate.Leapfrog
	bl      *integrate.BlockLeapfrog

	time   float64
	nsteps int

	stepSpan, forceSpan int32
	// Treecode statistics summed over force calls; the run zeroes them
	// after priming.
	interactions, activeI, forceCalls int64
}

func assemble(sys *nbody.System, cfg grape5.Config, tr *tracer) (*pipeline, error) {
	p := &pipeline{sys: sys, cfg: cfg, tr: tr, ob: obs.NewObserver()}
	var engine core.Engine
	switch cfg.Engine {
	case grape5.EngineHost:
		engine = &core.HostEngine{G: cfg.G, Eps: cfg.Eps}
	case grape5.EngineGRAPE5:
		if cfg.Shards > 1 {
			cl, err := g5.NewCluster(g5.ClusterConfig{
				Shards: cfg.Shards, Board: g5.DefaultConfig(), G: cfg.G, Guard: cfg.GuardPolicy,
			})
			if err != nil {
				return nil, err
			}
			if err := cl.SetEps(cfg.Eps); err != nil {
				return nil, errors.Join(err, cl.Close())
			}
			cl.SetObserver(p.ob)
			p.cluster = cl
			engine = cl
			break
		}
		hw, err := g5.NewSystem(g5.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if err := hw.SetEps(cfg.Eps); err != nil {
			return nil, err
		}
		hw.SetObserver(p.ob)
		p.hw = hw
		p.guard = g5.NewGuardedEngine(hw, cfg.G, cfg.GuardPolicy)
		p.guard.SetObserver(p.ob)
		engine = p.guard
	default:
		return nil, fmt.Errorf("engine kind %d is not benchmarked", cfg.Engine)
	}
	p.eng = &tracedEngine{inner: engine, tr: tr, parent: -1}
	p.tc = core.New(core.Options{
		Theta: cfg.Theta, Ncrit: cfg.Ncrit, G: cfg.G, Eps: cfg.Eps,
		Workers: cfg.Workers, Obs: p.ob,
	}, p.eng)

	if cfg.Blocks > 0 {
		bl, err := integrate.NewBlockLeapfrog(integrate.RungCriterion{
			Eta: cfg.Eta, Eps: cfg.Eps, DTMin: cfg.DTMin, MaxRung: cfg.Blocks - 1,
		}, p.force, p.forceActive)
		if err != nil {
			return nil, err
		}
		bl.Workers = cfg.Workers
		p.bl = bl
		p.cfg.DT = cfg.DTMin * float64(int64(1)<<uint(cfg.Blocks-1))
		return p, nil
	}
	lf, err := integrate.NewLeapfrog(cfg.DT, p.force)
	if err != nil {
		return nil, err
	}
	p.lf = lf
	return p, nil
}

// scaleWindow is the facade's hardware range for the current bounds:
// the bounding cube with a 5% drift margin. The facade's copy is private;
// the checksum equality is what keeps the two from drifting apart.
func scaleWindow(s *nbody.System) (lo, hi float64) {
	cube := s.Bounds().Cube()
	ext := cube.MaxEdge()
	if ext == 0 {
		ext = 1
	}
	lo = min(cube.Min.X-0.05*ext, cube.Min.Y-0.05*ext, cube.Min.Z-0.05*ext)
	hi = max(cube.Max.X+0.05*ext, cube.Max.Y+0.05*ext, cube.Max.Z+0.05*ext)
	return lo, hi
}

// setScaleWindow re-ranges the hardware, if there is any, under a span.
func (p *pipeline) setScaleWindow(s *nbody.System) error {
	if p.hw == nil && p.cluster == nil {
		return nil
	}
	id := p.tr.begin(spanSetScale, p.forceSpan)
	defer p.tr.end(id)
	lo, hi := scaleWindow(s)
	if p.cluster != nil {
		return p.cluster.SetScale(lo, hi)
	}
	return p.hw.SetScale(lo, hi)
}

func (p *pipeline) force(s *nbody.System) error { return p.forceActive(s, nil, 0) }

func (p *pipeline) forceActive(s *nbody.System, active []bool, nActive int) error {
	p.forceSpan = p.tr.begin(spanForce, p.stepSpan)
	defer p.tr.end(p.forceSpan)
	if err := p.setScaleWindow(s); err != nil {
		return err
	}
	id := p.tr.begin(spanCompute, p.forceSpan)
	p.eng.parent = id
	st, err := p.tc.ComputeForcesActive(s, active, nActive)
	p.tr.end(id)
	if err != nil {
		return err
	}
	p.interactions += st.Interactions
	p.activeI += st.Active
	p.forceCalls++
	return nil
}

// prime computes the initial forces outside any step span.
func (p *pipeline) prime() error {
	p.stepSpan = -1
	if p.bl != nil {
		return p.bl.Prime(p.sys)
	}
	return p.lf.Prime(p.sys)
}

// step advances one step (one block for block timesteps) under a step
// span, resetting the observer first exactly as the facade does.
func (p *pipeline) step() error {
	p.tr.nextStep()
	p.stepSpan = p.tr.begin(spanStep, -1)
	p.ob.Reset()
	var err error
	if p.bl != nil {
		err = p.bl.Step(p.sys)
	} else {
		err = p.lf.Step(p.sys)
	}
	p.tr.end(p.stepSpan)
	p.stepSpan = -1
	if err != nil {
		return err
	}
	p.time += p.cfg.DT
	p.nsteps++
	return nil
}

// save persists the run state through the store under a save span. The
// scalar state carries what a checkpoint of this run would: the traced
// run's checkpoints are timed and sized, never resumed.
func (p *pipeline) save(store *ckpt.Store) (ckpt.SaveInfo, error) {
	c := &ckpt.Checkpoint{
		State: ckpt.State{
			Step: int64(p.nsteps), Time: p.time, DT: p.cfg.DT,
			Theta: p.cfg.Theta, Eps: p.cfg.Eps, G: p.cfg.G, Ncrit: int64(p.cfg.Ncrit),
			Engine: int64(p.cfg.Engine), Shards: int64(p.cfg.Shards), Primed: true,
		},
		Sys: p.sys,
	}
	if p.bl != nil {
		c.Block = &ckpt.BlockState{
			Mode: ckpt.ModeBlock, Tick: p.bl.Tick(), DTMin: p.cfg.DTMin, Eta: p.cfg.Eta,
			MaxRung: int64(p.cfg.Blocks - 1), Rungs: p.bl.Rungs(),
		}
	}
	id := p.tr.begin(spanSave, -1)
	info, err := store.Save(c)
	p.tr.end(id)
	return info, err
}

func (p *pipeline) steps() int            { return p.nsteps }
func (p *pipeline) system() *nbody.System { return p.sys }

// hwCounters returns the emulated hardware's activity (summed over
// shards), or zero for host-engine pipelines.
func (p *pipeline) hwCounters() g5.Counters {
	switch {
	case p.cluster != nil:
		return p.cluster.Counters()
	case p.hw != nil:
		return p.hw.Counters()
	}
	return g5.Counters{}
}

// critHW is the cluster's critical-path simulated time, 0 off-cluster.
func (p *pipeline) critHW() float64 {
	if p.cluster != nil {
		return p.cluster.CriticalHWSeconds()
	}
	return 0
}

// recoveries counts every fault-handling event of the guard path.
func (p *pipeline) recoveries() int64 {
	var r g5.Recovery
	switch {
	case p.cluster != nil:
		r = p.cluster.Recovery()
	case p.guard != nil:
		r = p.guard.Recovery()
	}
	return r.Retries + r.CorruptResults + r.ExcludedBoards + r.FallbackBatches
}

func (p *pipeline) close() error {
	if p.cluster != nil {
		return p.cluster.Close()
	}
	return nil
}
