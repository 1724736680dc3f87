// Package obs is the step-level observability layer: lightweight phase
// spans and monotonic counters collected while a force step runs, and
// the structured per-step report they roll up into.
//
// The paper's evaluation (§3) rests on a time-balance decomposition of
// each step — host tree work t_host, GRAPE pipeline time t_grape and
// host-interface communication t_comm — which fixes the optimal group
// size n_g. The treecode, the octree builder, the GRAPE emulator and
// the fault-tolerant guard all record into one Observer; Simulation
// snapshots it into a StepReport after every step. Wall-clock phases
// (Morton sort, tree build, group-list walk, force evaluation, guard
// overhead) are measured on this machine; hardware phases (j/i-particle
// transfer, pipeline streaming, force readback) are simulated seconds
// from the g5 timing model. The observer holds only what nothing else
// counts: the offload path's work and fault tallies (flops, bytes,
// recoveries, fallbacks) live in g5's Counters and Recovery ledgers,
// and the step driver fills those report fields from their deltas.
//
// All Observer methods are safe on a nil receiver (no-ops) and safe for
// concurrent use: the traversal's walk workers add spans and counters
// from many goroutines at once.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Phase identifies one slice of a force step's work.
type Phase uint8

const (
	// PhaseMortonSort is Morton key generation, the radix sort and the
	// particle reorder (host wall-clock).
	PhaseMortonSort Phase = iota
	// PhaseTreeBuild is the octree construction or refresh after the
	// sort (host wall-clock).
	PhaseTreeBuild
	// PhaseGroupWalk is the interaction-list construction for the
	// particle groups, summed across walk workers (host CPU time).
	PhaseGroupWalk
	// PhaseForceEval is the time spent inside Engine.Accumulate, summed
	// across workers (host CPU time; for the emulated GRAPE this is the
	// emulation arithmetic, for the host engine the real force work).
	PhaseForceEval
	// PhaseGuard is fault-tolerance overhead: probe reference forces,
	// acceptance checks, retries and bisection re-runs (host
	// wall-clock, serialised by the guard's lock).
	PhaseGuard
	// PhaseJTransfer is the simulated j-particle upload time over the
	// host interface (g5 timing model).
	PhaseJTransfer
	// PhaseITransfer is the simulated i-particle upload time plus the
	// per-call DMA/driver latency (g5 timing model).
	PhaseITransfer
	// PhasePipeline is the simulated time the force pipelines stream
	// j-particles (g5 timing model) — the paper's t_grape.
	PhasePipeline
	// PhaseReadback is the simulated per-board force readback time (g5
	// timing model).
	PhaseReadback

	numPhases
)

var phaseNames = [numPhases]string{
	"morton_sort", "tree_build", "group_walk", "force_eval", "guard",
	"j_transfer", "i_transfer", "pipeline", "readback",
}

// String returns the snake_case phase name used in the JSON schema.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Counter identifies a monotonic per-step counter.
type Counter uint8

const (
	// CntInteractions is the pairwise interaction count of the step.
	CntInteractions Counter = iota
	// CntGroups is the number of particle groups walked.
	CntGroups
	// CntNodesVisited is the number of tree nodes touched by the walk.
	CntNodesVisited
	// CntActiveI is the number of force-evaluated field particles this
	// step, summed over substeps: N × substeps for shared-dt runs, the
	// closing-set totals for block-timestep runs. The active fraction
	// CntActiveI / (N × CntSubsteps) is the block scheduler's headline
	// saving.
	CntActiveI
	// CntSubsteps is the number of force calculations this step: 1 for
	// shared-dt runs, the block count of substeps advanced otherwise.
	CntSubsteps

	numCounters
)

var counterNames = [numCounters]string{
	"interactions", "groups", "nodes_visited", "active_i", "substeps",
}

// String returns the snake_case counter name used in the JSON schema.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Observer accumulates phase spans and counters for one step. Zero it
// with Reset at step boundaries and roll it up with Snapshot. The zero
// value is ready to use; a nil *Observer discards everything.
type Observer struct {
	// phase seconds are float64 bit patterns updated by CAS so
	// concurrent workers can add fractional seconds without a lock.
	phases [numPhases]atomic.Uint64
	counts [numCounters]atomic.Int64
}

// NewObserver returns an empty Observer.
func NewObserver() *Observer { return &Observer{} }

// Reset zeroes all phases and counters (start of a step).
func (o *Observer) Reset() {
	if o == nil {
		return
	}
	for i := range o.phases {
		o.phases[i].Store(0)
	}
	for i := range o.counts {
		o.counts[i].Store(0)
	}
}

// AddSeconds adds s seconds to phase p. Negative and non-finite values
// are discarded.
func (o *Observer) AddSeconds(p Phase, s float64) {
	if o == nil || p >= numPhases || !(s > 0) || math.IsInf(s, 1) {
		return
	}
	a := &o.phases[p]
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + s)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// Seconds returns the accumulated seconds of phase p.
func (o *Observer) Seconds(p Phase) float64 {
	if o == nil || p >= numPhases {
		return 0
	}
	return math.Float64frombits(o.phases[p].Load())
}

// Add adds n to counter c.
func (o *Observer) Add(c Counter, n int64) {
	if o == nil || c >= numCounters {
		return
	}
	o.counts[c].Add(n)
}

// Count returns the value of counter c.
func (o *Observer) Count(c Counter) int64 {
	if o == nil || c >= numCounters {
		return 0
	}
	return o.counts[c].Load()
}

// Timer is an in-flight wall-clock span; Stop adds the elapsed time to
// its phase. The zero Timer (from a nil Observer) is a no-op.
type Timer struct {
	o     *Observer
	p     Phase
	start time.Time
}

// Start opens a wall-clock span on phase p.
func (o *Observer) Start(p Phase) Timer {
	if o == nil {
		return Timer{}
	}
	return Timer{o: o, p: p, start: time.Now()}
}

// Stop closes the span, crediting the elapsed wall-clock to the phase.
func (t Timer) Stop() {
	if t.o == nil {
		return
	}
	t.o.AddSeconds(t.p, time.Since(t.start).Seconds())
}
