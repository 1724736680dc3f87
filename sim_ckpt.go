package grape5

// Checkpoint/restart wiring: Simulation.Checkpoint persists the
// complete run state through a rotating ckpt.Store, and
// ResumeSimulation reconstructs a Simulation from a loaded checkpoint
// so that the resumed trajectory is bitwise identical to the
// uninterrupted run's.
//
// Why bitwise resume works: a checkpoint taken after step k stores the
// particle system in its exact in-memory (tree) order together with the
// post-force accelerations and potentials, and marks the integrator
// primed. The resumed leapfrog therefore consumes those accelerations
// in its next half-kick exactly as the uninterrupted run would — no
// re-priming force call, no reordering. The Morton radix sort is
// stable, so subsequent force evaluations visit particles in the same
// order; simulation time is restored as the exact float64, so the time
// accumulation sequence is identical. The one excluded piece is the
// hardware fault injector's RNG stream, which is per-process: the
// bitwise guarantee applies to fault-free configurations (and to any
// run whose injected faults are fully corrected by the guard).

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/g5"
	"repro/internal/octree"
)

// RunAux carries driver-level run state that the Simulation itself does
// not consume but a resumable checkpoint must preserve: the cosmology
// anchors of the EdS schedule and the IC seed. All zero for plain
// model-unit runs.
type RunAux struct {
	// Scale is the base cosmological scale factor at the run's start.
	Scale float64
	// T0 and Age0 anchor the EdS time-to-scale-factor mapping.
	T0, Age0 float64
	// Seed is the initial-conditions generator seed (provenance).
	Seed uint64
}

// SetAux records driver-level run state to be carried in checkpoints.
func (sim *Simulation) SetAux(aux RunAux) { sim.aux = aux }

// Aux returns the driver-level run state (restored on resume).
func (sim *Simulation) Aux() RunAux { return sim.aux }

// Primed reports whether the integrator holds valid post-force
// accelerations (after Prime, a Step, or a primed resume).
func (sim *Simulation) Primed() bool { return sim.bl.Primed() }

// blockState assembles the version-2 RUNG scheduling state, or nil for
// fixed-dt runs (whose checkpoints stay version 1, byte-identical to
// the pre-block format).
func (sim *Simulation) blockState() *ckpt.BlockState {
	switch {
	case sim.cfg.Blocks > 0:
		return &ckpt.BlockState{
			Mode:    ckpt.ModeBlock,
			Tick:    sim.bl.Tick(),
			DTMin:   sim.cfg.DTMin,
			Eta:     sim.cfg.Eta,
			MaxRung: int64(sim.cfg.Blocks - 1),
			Rungs:   sim.bl.Rungs(),
		}
	case sim.cfg.Adaptive:
		return &ckpt.BlockState{
			Mode:  ckpt.ModeAdaptive,
			DTMin: sim.cfg.DTMin,
			Eta:   sim.cfg.Eta,
		}
	}
	return nil
}

// CheckpointState assembles the scalar checkpoint state: step and time,
// the config fingerprint, the aux anchors and the whole-run cumulative
// counters (base + live, via the merged accessors).
func (sim *Simulation) CheckpointState() ckpt.State {
	return ckpt.State{
		Step:  int64(sim.nsteps),
		Time:  sim.time,
		DT:    sim.cfg.DT,
		Scale: sim.aux.Scale,
		T0:    sim.aux.T0,
		Age0:  sim.aux.Age0,

		Theta:  sim.cfg.Theta,
		Eps:    sim.cfg.Eps,
		G:      sim.cfg.G,
		Ncrit:  int64(sim.cfg.Ncrit),
		Engine: int64(sim.cfg.Engine),
		Shards: int64(sim.cfg.Shards),
		Seed:   sim.aux.Seed,

		TotalInteractions: sim.TotalInteractions,

		// Struct conversions, not field lists: a counter added to g5
		// without its stored twin in ckpt stops compiling here.
		Recovery: ckpt.RecoveryCounters(sim.Recovery()),
		Hardware: ckpt.HardwareCounters(sim.HardwareCounters()),
		Faults:   ckpt.FaultCounters(sim.FaultStats()),

		Primed: sim.Primed(),
	}
}

// DurableState assembles the complete run state — scalar state,
// particles in their exact in-memory order, scheduling state — that
// Checkpoint saves and a job server marshals as a run's result. The
// particle system is shared with the simulation, not copied: write it
// out before the next Step.
func (sim *Simulation) DurableState() *ckpt.Checkpoint {
	return &ckpt.Checkpoint{State: sim.CheckpointState(), Sys: sim.Sys, Block: sim.blockState()}
}

// Checkpoint durably saves the complete run state into the store (atomic
// write + rotation). Its wall-clock cost and bytes are added to
// LastReport, so the completed step's telemetry shows what the
// durability cost; each save after the same step adds its own.
func (sim *Simulation) Checkpoint(store *ckpt.Store) (ckpt.SaveInfo, error) {
	if store == nil {
		return ckpt.SaveInfo{}, fmt.Errorf("grape5: nil checkpoint store")
	}
	t0 := time.Now()
	info, err := store.Save(sim.DurableState())
	if err != nil {
		return ckpt.SaveInfo{}, fmt.Errorf("grape5: checkpoint at step %d: %w", sim.nsteps, err)
	}
	sim.LastReport.Phases.Checkpoint += time.Since(t0).Seconds()
	sim.LastReport.CkptBytes += info.Bytes
	sim.LastReport.CkptWrites++
	return info, nil
}

// merge implements the fingerprint merge for one field: zero means
// unset, the other side's value is inherited; two different non-zero
// values are a conflict the caller must surface loudly.
func merge[T int64 | float64](name string, saved, given T) (T, error) {
	switch {
	case given == 0:
		return saved, nil
	case saved == 0 || saved == given:
		return given, nil
	}
	return 0, fmt.Errorf("grape5: resume %s mismatch: checkpoint has %v, caller gave %v", name, saved, given)
}

// ResumeConfig merges a checkpoint's config fingerprint with the
// caller's overrides. Zero-valued caller fields inherit the checkpoint;
// a non-zero caller value conflicting with a non-zero checkpoint value
// is a loud error, never a silent preference. Engine follows the same
// rule (EngineHost is the zero value, so an explicit host-engine
// override of a GRAPE checkpoint must be resolved by the caller before
// resuming; the checkpoint's -1 means unknown and defers to the
// caller). Shards is exempt from conflict checking: the sharded cluster
// is bitwise-neutral, so a resume may change K freely — an explicit
// value wins, unset inherits.
func ResumeConfig(st ckpt.State, cfg Config) (Config, error) {
	out := cfg
	var err error
	float := func(name string, saved float64, field *float64) {
		if err == nil {
			*field, err = merge(name, saved, *field)
		}
	}
	float("theta", st.Theta, &out.Theta)
	float("eps", st.Eps, &out.Eps)
	float("G", st.G, &out.G)
	float("dt", st.DT, &out.DT)
	if err != nil {
		return Config{}, err
	}
	ncrit, err := merge("ncrit", st.Ncrit, int64(cfg.Ncrit))
	if err != nil {
		return Config{}, err
	}
	out.Ncrit = int(ncrit)
	// Retired options: a run that set them is on a trajectory no
	// Simulation can continue. The pm-grid slot only steered the
	// particle-mesh engine; host and grape5 runs ignored it.
	if st.LeafCap != 0 && st.LeafCap != octree.LeafCap {
		return Config{}, fmt.Errorf("grape5: resume leafcap: checkpoint ran leaf capacity %d, every run now uses %d", st.LeafCap, octree.LeafCap)
	}
	if st.RebuildEvery != 0 && st.RebuildEvery != 1 {
		return Config{}, fmt.Errorf("grape5: resume rebuild-every: checkpoint reused its tree for %d steps, every run now rebuilds each step", st.RebuildEvery)
	}
	if st.Engine == 2 { // the particle-mesh engine's kind
		return Config{}, fmt.Errorf("grape5: resume engine: checkpoint ran the particle-mesh engine, which is retired; every run now uses the treecode")
	}
	if st.Engine >= 0 {
		// The checkpoint's engine is known (0 = host is a real value here,
		// unlike the zero-means-unset fields above; -1 means unknown). A
		// non-host caller value that disagrees is a conflict; the
		// zero-valued EngineHost inherits, since it is indistinguishable
		// from unset — an explicit engine downgrade must be resolved by
		// the driver before resuming.
		if cfg.Engine != EngineHost && int64(cfg.Engine) != st.Engine {
			return Config{}, fmt.Errorf("grape5: resume engine mismatch: checkpoint ran engine %s, caller gave %s", EngineKind(st.Engine), cfg.Engine)
		}
		out.Engine = EngineKind(st.Engine)
	}
	if cfg.Shards == 0 {
		out.Shards = int(st.Shards)
	}
	if out.DT <= 0 {
		return Config{}, fmt.Errorf("grape5: resume has no timestep: checkpoint lacks DT (legacy snapshot?) and none was given")
	}
	return out, nil
}

// mergeBlockConfig folds a checkpoint's RUNG scheduling state into the
// caller's config under the same inherit-or-conflict rules as the
// scalar fingerprint. Scheduling mode cannot change mid-run: a block or
// adaptive checkpoint rejects a caller demanding the other mode, and a
// version-1 checkpoint (no Block) rejects any caller demanding either —
// the trajectory past the checkpoint would not be the checkpointed
// run's.
func mergeBlockConfig(b *ckpt.BlockState, cfg Config) (Config, error) {
	out := cfg
	if b == nil {
		if cfg.Blocks > 0 || cfg.Adaptive {
			return Config{}, fmt.Errorf("grape5: cannot switch to block/adaptive timesteps mid-run: checkpoint was taken with a fixed shared dt")
		}
		return out, nil
	}
	var err error
	switch b.Mode {
	case ckpt.ModeBlock:
		if cfg.Adaptive {
			return Config{}, fmt.Errorf("grape5: cannot switch to adaptive dt mid-run: checkpoint uses block timesteps")
		}
		var v int64
		if v, err = merge("blocks", b.MaxRung+1, int64(cfg.Blocks)); err != nil {
			return Config{}, err
		}
		out.Blocks = int(v)
		if out.DTMin, err = merge("dtmin", b.DTMin, cfg.DTMin); err != nil {
			return Config{}, err
		}
	case ckpt.ModeAdaptive:
		if cfg.Blocks > 0 {
			return Config{}, fmt.Errorf("grape5: cannot switch to block timesteps mid-run: checkpoint uses adaptive dt")
		}
		out.Adaptive = true
		if out.DTMin, err = merge("dtmin", b.DTMin, cfg.DTMin); err != nil {
			return Config{}, err
		}
	default:
		return Config{}, fmt.Errorf("grape5: checkpoint has unknown scheduling mode %d", b.Mode)
	}
	if out.Eta, err = merge("eta", b.Eta, cfg.Eta); err != nil {
		return Config{}, err
	}
	return out, nil
}

// ResumeSimulation reconstructs a Simulation from a loaded checkpoint.
// The checkpoint's system is adopted in place (exact tree order, exact
// accelerations); cfg supplies overrides under the ResumeConfig merge
// rules. When the checkpoint is primed, the integrator resumes without
// a re-priming force call — the next Step is bitwise the same as the
// uninterrupted run's. Whole-run counters (recovery, hardware, faults,
// total interactions) continue from the checkpointed totals.
func ResumeSimulation(c *ckpt.Checkpoint, cfg Config) (*Simulation, error) {
	if c == nil || c.Sys == nil {
		return nil, fmt.Errorf("grape5: nil checkpoint")
	}
	st := c.State
	merged, err := ResumeConfig(st, cfg)
	if err != nil {
		return nil, err
	}
	if merged, err = mergeBlockConfig(c.Block, merged); err != nil {
		return nil, err
	}
	sim, err := NewSimulation(c.Sys, merged)
	if err != nil {
		return nil, fmt.Errorf("grape5: resuming at step %d: %w", st.Step, err)
	}
	sim.time = st.Time
	sim.nsteps = int(st.Step)
	sim.TotalInteractions = st.TotalInteractions
	sim.aux = RunAux{Scale: st.Scale, T0: st.T0, Age0: st.Age0, Seed: st.Seed}
	sim.baseRecovery = g5.Recovery(st.Recovery)
	sim.baseCounters = g5.Counters(st.Hardware)
	sim.baseFaults = g5.FaultStats(st.Faults)
	// Shared-dt resumes carry no scheduler state: the fixed step is in
	// the config and the next adaptive dt is a pure function of the
	// restored accelerations, so marking the core primed is all it takes.
	sim.bl.SetPrimed(st.Primed)
	if sim.cfg.Blocks > 0 {
		if err := sim.bl.SetState(c.Block.Rungs, c.Block.Tick); err != nil {
			return nil, errors.Join(fmt.Errorf("grape5: resuming block scheduler: %w", err), sim.Close())
		}
		if st.Primed {
			// The uninterrupted run's next substep starts from a cached
			// tree (built at the last full-set rebuild and refreshed
			// since). The checkpointed system is already Morton-sorted, so
			// one deterministic rebuild reproduces exactly that tree and
			// the resumed run stays on the same refresh-vs-rebuild
			// schedule, keeping the trajectory bitwise.
			if err := sim.tc.PrimeTree(sim.Sys); err != nil {
				return nil, errors.Join(fmt.Errorf("grape5: priming tree for block resume: %w", err), sim.Close())
			}
		}
	}
	return sim, nil
}
