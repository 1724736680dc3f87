package grape5

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/integrate"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/units"
)

// StepReport is the structured per-step telemetry (phase spans, work
// counters, recovery events) emitted by Simulation.Step.
type StepReport = obs.StepReport

// System is the particle container (structure-of-arrays positions,
// velocities, masses, stable IDs).
type System = nbody.System

// Stats reports the treecode work of one force evaluation.
type Stats = core.Stats

// Simulation couples a System to the treecode, a force engine and the
// kick-drift-kick integrator core.
type Simulation struct {
	// Sys is the particle system (reordered into tree order by every
	// force evaluation; identity is in Sys.ID).
	Sys *System

	cfg     Config
	tc      *core.Treecode
	cluster *g5.Cluster              // every GRAPE run, K = max(Shards, 1)
	bl      *integrate.BlockLeapfrog // every dt policy runs on this core
	ob      *obs.Observer
	time    float64
	nsteps  int
	aux     RunAux

	// base* hold the whole-run counters restored from a checkpoint; a
	// fresh process starts its live hardware counters at zero, so the
	// public accessors report base + live to keep run totals continuous
	// across restarts.
	baseCounters g5.Counters
	baseRecovery g5.Recovery
	baseFaults   g5.FaultStats

	// edge* hold the ledgers at the start of the current Prime or Step;
	// finishReport reports the step's work and recovery counts as the
	// differences, so the ledgers stay their one tally.
	edgeCounters g5.Counters
	edgeRecovery g5.Recovery

	// LastStats is the treecode statistics of the most recent force
	// evaluation.
	LastStats Stats
	// LastReport is the telemetry of the most recent Step (or Prime):
	// the paper's time-balance decomposition of the step — host tree
	// phases measured on this machine, GRAPE pipeline and transfer
	// phases in simulated hardware seconds — plus activity counters.
	LastReport StepReport
	// TotalInteractions accumulates pairwise interactions over the run.
	TotalInteractions int64
}

// NewSimulation builds a simulation over sys after cfg.Validate accepts
// the configuration. sys is used in place (not copied). The integrator keys its per-particle state by Sys.ID, so the
// IDs must be a permutation of [0, N): Prime (or the first Step) rejects
// sparse or duplicate IDs in every timestep mode.
func NewSimulation(sys *System, cfg Config) (*Simulation, error) {
	if sys == nil || sys.N() == 0 {
		return nil, fmt.Errorf("grape5: empty system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Blocks > 0 {
		cfg.DT = cfg.blockSpan() // validated: unset, or already the span
	}
	if cfg.G == 0 {
		cfg.G = units.G
	}

	sim := &Simulation{Sys: sys, cfg: cfg, ob: obs.NewObserver()}
	opt := core.Options{
		Theta:   cfg.Theta,
		Ncrit:   cfg.Ncrit,
		G:       cfg.G,
		Eps:     cfg.Eps,
		Workers: cfg.Workers,
		Obs:     sim.ob,
	}

	var engine core.Engine
	switch cfg.Engine {
	case EngineHost:
		engine = &core.HostEngine{G: cfg.G, Eps: cfg.Eps}
	case EngineGRAPE5:
		cl, err := g5.NewCluster(g5.ClusterConfig{
			Shards: cfg.Shards, Board: g5.Config{Fault: cfg.Fault}, G: cfg.G,
			Guard: cfg.GuardPolicy, Unguarded: !cfg.Guard && cfg.Shards <= 1,
		})
		if err != nil {
			return nil, err
		}
		if err := cl.SetEps(cfg.Eps); err != nil {
			return nil, err
		}
		cl.SetObserver(sim.ob)
		sim.cluster = cl
		engine = cl
	}
	sim.tc = core.New(opt, engine)

	// A shared timestep is the single-rung case of the block scheme:
	// rung 0 carries DT (adaptive runs rewrite it before each Step).
	crit := integrate.RungCriterion{Eta: cfg.Eta, Eps: cfg.Eps, DTMin: cfg.DT}
	if cfg.Blocks > 0 {
		crit.DTMin, crit.MaxRung = cfg.DTMin, cfg.Blocks-1
	}
	bl, err := integrate.NewBlockLeapfrog(crit, sim.force, sim.forceActive)
	if err != nil {
		return nil, errors.Join(err, sim.Close())
	}
	sim.bl = bl
	return sim, nil
}

// setScaleWindow re-ranges the hardware fixed-point window to the
// current particle bounds, exactly like the real GRAPE library: the
// sphere expands by ~25x over the headline run. No-op for host engines.
func (sim *Simulation) setScaleWindow(s *System) error {
	if sim.cluster == nil {
		return nil
	}
	cube := s.Bounds().Cube()
	ext := cube.MaxEdge()
	if ext == 0 {
		ext = 1
	}
	// Margin for the drift within the step.
	lo := min(cube.Min.X-0.05*ext, cube.Min.Y-0.05*ext, cube.Min.Z-0.05*ext)
	hi := max(cube.Max.X+0.05*ext, cube.Max.Y+0.05*ext, cube.Max.Z+0.05*ext)
	return sim.cluster.SetScale(lo, hi)
}

// force is the integrator's full-set ForceFunc (a nil mask).
func (sim *Simulation) force(s *System) error { return sim.forceActive(s, nil, 0) }

// forceActive is the integrator's substep ForceFunc: rescale the
// hardware if present, run the grouped treecode over the masked closing
// set, record statistics.
func (sim *Simulation) forceActive(s *System, activeByID []bool, nActive int) error {
	if err := sim.setScaleWindow(s); err != nil {
		return err
	}
	st, err := sim.tc.ComputeForcesActive(s, activeByID, nActive)
	if err != nil {
		return err
	}
	sim.LastStats = *st
	sim.TotalInteractions += st.Interactions
	return nil
}

// Prime computes initial forces (optional; Step does it on first call).
// The priming force call emits its own telemetry as step 0.
func (sim *Simulation) Prime() error {
	sim.beginReport()
	a0 := obs.HeapAllocBytes()
	t0 := time.Now()
	if err := sim.bl.Prime(sim.Sys); err != nil {
		return err
	}
	wall := time.Since(t0)
	alloc := int64(obs.HeapAllocBytes() - a0)
	sim.LastReport = sim.finishReport(0, wall)
	sim.LastReport.BytesAlloc = alloc
	return nil
}

// beginReport opens a step's telemetry: it resets the observer and
// notes the ledgers for finishReport to difference.
func (sim *Simulation) beginReport() {
	sim.ob.Reset()
	sim.edgeCounters, sim.edgeRecovery = sim.HardwareCounters(), sim.Recovery()
}

// finishReport snapshots the observer and fills what it does not
// count: the block activity fraction (the observer does not know N)
// and the step's deltas of the ledgers — flops and bytes from
// HardwareCounters, recoveries (retries, rejected results, board
// exclusions) and fallback batches from Recovery.
func (sim *Simulation) finishReport(step int, wall time.Duration) StepReport {
	r := sim.ob.Snapshot(step, wall)
	if r.Substeps > 0 && sim.Sys.N() > 0 {
		r.ActiveFrac = float64(r.ActiveI) / (float64(sim.Sys.N()) * float64(r.Substeps))
	}
	hw, hw0 := sim.HardwareCounters(), sim.edgeCounters
	rec, rec0 := sim.Recovery(), sim.edgeRecovery
	r.Flops = float64((hw.Interactions - hw0.Interactions) * g5.OpsPerInteraction)
	r.Bytes = hw.BytesTransferred - hw0.BytesTransferred
	r.Recoveries = rec.Retries - rec0.Retries + rec.CorruptResults - rec0.CorruptResults +
		rec.ExcludedBoards - rec0.ExcludedBoards
	r.Fallbacks = rec.FallbackBatches - rec0.FallbackBatches
	return r
}

// Step advances one step — a single kick-drift-kick for fixed and
// adaptive dt, or one full block of substeps (simulation time +=
// DTMin·2^(Blocks-1)) for block timesteps — and
// snapshots the step's telemetry into LastReport, including the bytes
// of heap allocated during the step (near zero in steady state: the
// tree builder, walk workers and engines all run on reused arenas). A
// first Step without a prior Prime folds the priming force call into
// its report.
func (sim *Simulation) Step() error {
	sim.beginReport()
	a0 := obs.HeapAllocBytes()
	t0 := time.Now()
	if sim.cfg.Adaptive {
		// The criterion reads current accelerations, so an unprimed run
		// primes first (folded into this step's report).
		if !sim.bl.Primed() {
			if err := sim.bl.Prime(sim.Sys); err != nil {
				return err
			}
		}
		dt, err := sim.bl.Crit.SharedDT(sim.Sys, sim.cfg.DTMin, sim.cfg.DT)
		if err != nil {
			return err
		}
		sim.bl.Crit.DTMin = dt
	}
	if err := sim.bl.Step(sim.Sys); err != nil {
		return err
	}
	wall := time.Since(t0)
	alloc := int64(obs.HeapAllocBytes() - a0)
	sim.time += sim.LastDT()
	sim.nsteps++
	sim.LastReport = sim.finishReport(sim.nsteps, wall)
	sim.LastReport.BytesAlloc = alloc
	return nil
}

// Run advances n steps.
func (sim *Simulation) Run(n int) error {
	for k := 0; k < n; k++ {
		if err := sim.Step(); err != nil {
			return fmt.Errorf("grape5: step %d: %w", sim.nsteps, err)
		}
	}
	return nil
}

// Time returns the elapsed simulation time.
func (sim *Simulation) Time() float64 { return sim.time }

// Config returns the simulation's effective configuration (with resume
// merging and defaulting applied) — the values a checkpoint records.
func (sim *Simulation) Config() Config { return sim.cfg }

// Steps returns the number of completed steps.
func (sim *Simulation) Steps() int { return sim.nsteps }

// RungOccupancy returns the per-rung particle counts of the block
// scheduler (index k = rung k, dt = DTMin·2^k), or nil for fixed- and
// adaptive-dt simulations. Valid after priming.
func (sim *Simulation) RungOccupancy() []int64 {
	if sim.cfg.Blocks == 0 {
		return nil
	}
	return sim.bl.Occupancy()
}

// LastDT returns the timestep most recently applied: DT for fixed dt,
// the block span for block runs, the adaptive criterion's last pick
// otherwise (its ceiling DT until this process has taken a step).
func (sim *Simulation) LastDT() float64 { return sim.bl.Crit.Span() }

// Energy returns the current energy using the engine-filled potentials
// (valid after at least one force evaluation).
func (sim *Simulation) Energy() analysis.EnergyReport {
	return analysis.EnergyFromPotentials(sim.Sys)
}

// Observer returns the simulation's telemetry collector. It is reset
// at every step boundary; use LastReport for completed-step telemetry.
func (sim *Simulation) Observer() *obs.Observer { return sim.ob }

// HardwareCounters returns the emulated GRAPE-5 activity counters —
// summed across shards for cluster runs — or a zero value for
// host-engine simulations. Totals are whole-run: a resumed simulation
// reports the checkpointed base plus this process's activity.
func (sim *Simulation) HardwareCounters() g5.Counters {
	live := g5.Counters{}
	if sim.cluster != nil {
		live = sim.cluster.Counters()
	}
	return sim.baseCounters.Add(live)
}

// Cluster returns the GRAPE cluster engine (K = 1 for a single-board
// run), or nil for host-engine runs.
func (sim *Simulation) Cluster() *g5.Cluster { return sim.cluster }

// Recovery returns the guard's fault-handling counters, summed across
// shards, or a zero value when the simulation does not run a guarded
// offload path. Totals are whole-run (checkpointed base plus this
// process); HostOnly reflects this process's hardware.
func (sim *Simulation) Recovery() g5.Recovery {
	live := g5.Recovery{}
	if sim.cluster != nil {
		live = sim.cluster.Recovery()
	}
	return sim.baseRecovery.Add(live)
}

// Health snapshots the simulation's hardware serving state: shard and
// board inventory with guard exclusions and recovery counters (see
// g5.Health). Host-engine simulations report a zero inventory that is
// never degraded. Call it between steps — it must not race with Step.
func (sim *Simulation) Health() g5.Health {
	if sim.cluster != nil {
		return sim.cluster.Health()
	}
	return g5.Health{}
}

// FaultStats returns the injected-fault activity counters, or a zero
// value without fault injection. Totals are whole-run across restarts.
func (sim *Simulation) FaultStats() g5.FaultStats {
	live := g5.FaultStats{}
	if sim.cluster != nil {
		live = sim.cluster.FaultStats()
	}
	return sim.baseFaults.Add(live)
}

// Close returns a shard failure the cluster has not yet reported (see
// g5.Cluster.Close). It is a no-op for host-engine runs, and
// safe to call more than once.
func (sim *Simulation) Close() error {
	if sim.cluster != nil {
		return sim.cluster.Close()
	}
	return nil
}
