package grape5

// Run configuration: the one place a run's parameters are named,
// defaulted and judged. Every front-end — the CLI flags, the job
// server's wire decoder, the bench and report tools — builds a Config
// and hands it to NewSimulation, which calls Validate first; none of
// them restates a default or a rule (DESIGN.md "Run configuration").

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/g5"
)

// DefaultTheta and DefaultNcrit are what an unset Config.Theta and
// Config.Ncrit resolve to: core's constants, re-exported so flag tables
// and the wire decoder name them instead of restating the numbers.
const (
	DefaultTheta = core.DefaultTheta
	DefaultNcrit = core.DefaultNcrit
)

// EngineKind selects the force pipeline.
type EngineKind int

const (
	// EngineHost computes forces in float64 on the host — the paper's
	// "general purpose computer" baseline.
	EngineHost EngineKind = iota
	// EngineGRAPE5 offloads force evaluation to the emulated GRAPE-5.
	EngineGRAPE5
	// EnginePM replaces the treecode entirely with the particle-mesh
	// solver (isolated boundaries) — the classical fast baseline
	// algorithm. Theta/Ncrit are ignored; PMGrid sets the mesh. The
	// solver box tracks the system bounds each step, which adds
	// mesh-scale force noise on expanding systems; EnginePM is meant
	// for force comparisons and quick looks, not production cosmology.
	EnginePM
)

// engineNames is the engine-name table behind String and ParseEngine:
// the spelling every flag, wire field and log line uses.
var engineNames = [...]string{EngineHost: "host", EngineGRAPE5: "grape5", EnginePM: "pm"}

// String returns the engine's name ("host", "grape5", "pm").
func (k EngineKind) String() string {
	if k < 0 || int(k) >= len(engineNames) {
		return fmt.Sprintf("engine-%d", int(k))
	}
	return engineNames[k]
}

// ParseEngine is the inverse of String.
func ParseEngine(name string) (EngineKind, error) {
	for k, n := range engineNames {
		if n == name {
			return EngineKind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want host, grape5 or pm)", name)
}

// Config describes a simulation. The zero value of every field means
// "unset" and resolves to the documented default when the run is built;
// Config() and checkpoints keep the value as given, so an unset Theta
// stays 0 there.
type Config struct {
	// Theta is the Barnes-Hut opening parameter (default DefaultTheta).
	Theta float64
	// Ncrit is the group-size bound of the modified tree algorithm
	// (the paper's n_g; default DefaultNcrit).
	Ncrit int
	// G is the gravitational constant (default units.G, the
	// Mpc/(km/s)/1e10-Msun system; set 1 for model-unit problems).
	G float64
	// Eps is the Plummer softening length.
	Eps float64
	// DT is the integration timestep.
	DT float64
	// Engine selects host or GRAPE-5 force evaluation.
	Engine EngineKind
	// Fault, with EngineGRAPE5, injects seeded deterministic hardware
	// faults into every board of the paper's 2-board system; nil is a
	// perfect device.
	Fault *g5.FaultModel
	// Guard turns on the fault-tolerant offload path of EngineGRAPE5
	// (acceptance checks, retries, board exclusion, host fallback).
	// Without it a hardware error fails the force call: Prime or Step
	// returns it. Every GRAPE run drives a g5.Cluster of max(Shards, 1)
	// shards.
	Guard bool
	// GuardPolicy tunes the guard; the zero value selects defaults.
	GuardPolicy g5.GuardPolicy
	// Shards is the number K of independent GRAPE systems the guarded
	// cluster engine (g5.Cluster) drives: each group force batch runs,
	// in the walk worker that built it, on the shard with the least work
	// placed so far in the force call. Shards > 1 implies Guard
	// (GuardPolicy applies per shard); 0 or 1 is one system.
	Shards int
	// PMGrid is the particle-mesh size per dimension for EnginePM
	// (default 64; power of two).
	PMGrid int
	// Workers bounds traversal parallelism (0 = GOMAXPROCS).
	Workers int

	// Blocks, when greater than 0, selects hierarchical block-timestep
	// integration with Blocks power-of-two rung levels: particle rungs
	// k ∈ [0, Blocks-1] advance with dt = DTMin·2^k, and one Step spans
	// the full block DTMin·2^(Blocks-1). DT, if set, must equal that
	// span (unset inherits it). Blocks == 1 is the fixed-dt run at
	// DT = DTMin, bitwise. Mutually exclusive with Adaptive and EnginePM.
	Blocks int
	// DTMin is the finest block timestep (required when Blocks > 0).
	DTMin float64
	// Eta is the timestep accuracy parameter of the rung criterion
	// (Blocks > 0) or the shared adaptive criterion (Adaptive); default
	// 0.2.
	Eta float64
	// Adaptive selects the shared adaptive timestep: every step uses
	// dt = Eta·sqrt(Eps/|a|_max) clamped to [DTMin, DT]. DT acts as the
	// ceiling, DTMin (optional) as the floor.
	Adaptive bool
}

// blockSpan is the simulation time one Step covers under block
// timesteps: DTMin·2^(Blocks-1).
func (cfg Config) blockSpan() float64 {
	return cfg.DTMin * float64(int64(1)<<uint(cfg.Blocks-1))
}

// Validate reports the first reason cfg cannot describe a run, or nil.
// NewSimulation (hence ResumeSimulation, after the checkpoint merge)
// calls it before building anything, so every front-end is held to the
// same rules: real-valued parameters finite and non-negative (zero is
// "unset"), counts non-negative, a known engine, the GRAPE-only options
// (Guard, Shards > 1, Fault) only with EngineGRAPE5, a valid fault
// model, a coherent block-timestep ladder, a positive step, and a
// softening length for the block and adaptive criteria.
func (cfg Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"theta", cfg.Theta}, {"eps", cfg.Eps}, {"G", cfg.G},
		{"dt", cfg.DT}, {"dtmin", cfg.DTMin}, {"eta", cfg.Eta},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("grape5: %s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ncrit", cfg.Ncrit}, {"shards", cfg.Shards}, {"pm-grid", cfg.PMGrid},
		{"workers", cfg.Workers}, {"blocks", cfg.Blocks},
	} {
		if f.v < 0 {
			return fmt.Errorf("grape5: %s must be non-negative, got %d", f.name, f.v)
		}
	}
	if cfg.Engine < 0 || int(cfg.Engine) >= len(engineNames) {
		return fmt.Errorf("grape5: unknown engine kind %d", cfg.Engine)
	}
	if cfg.Engine != EngineGRAPE5 {
		switch {
		case cfg.Guard:
			return fmt.Errorf("grape5: Guard needs the grape5 engine, got %s", cfg.Engine)
		case cfg.Shards > 1:
			return fmt.Errorf("grape5: Shards = %d needs the grape5 engine, got %s", cfg.Shards, cfg.Engine)
		case cfg.Fault != nil:
			return fmt.Errorf("grape5: fault injection needs the grape5 engine, got %s", cfg.Engine)
		}
	}
	if err := (g5.Config{Fault: cfg.Fault}).Validate(); err != nil {
		return err
	}
	if cfg.Blocks > 0 {
		if cfg.Adaptive {
			return fmt.Errorf("grape5: Blocks and Adaptive are mutually exclusive")
		}
		if cfg.Engine == EnginePM {
			return fmt.Errorf("grape5: block timesteps are not supported with the PM engine")
		}
		if cfg.DTMin == 0 {
			return fmt.Errorf("grape5: block timesteps need DTMin > 0, got %v", cfg.DTMin)
		}
		if cfg.Blocks > 31 {
			return fmt.Errorf("grape5: at most 31 rung levels, got %d", cfg.Blocks)
		}
		if span := cfg.blockSpan(); cfg.DT != 0 && cfg.DT != span {
			return fmt.Errorf("grape5: DT %v conflicts with block span DTMin·2^(Blocks-1) = %v; leave DT unset to inherit it", cfg.DT, span)
		}
	} else if cfg.DT == 0 {
		return fmt.Errorf("grape5: timestep must be positive, got %v", cfg.DT)
	}
	// Both criteria scale dt with sqrt(eps/|a|); without a softening
	// length they would put every particle on the coarsest step.
	if (cfg.Blocks > 0 || cfg.Adaptive) && cfg.Eps == 0 {
		return fmt.Errorf("grape5: block and adaptive timesteps need eps > 0, got %v", cfg.Eps)
	}
	return nil
}
