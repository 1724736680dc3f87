package g5

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/hostk"
	"repro/internal/obs"
	"repro/internal/vec"
)

// guardTolerance is the relative error allowed between the hardware's
// probe-particle force and the host reference. It must sit above the
// pipeline's ~0.3 % arithmetic error with margin, and below 1/Boards (a
// stuck pipeline drops one board's 1/Boards force share); 0.05 is fine
// for the paper's 2-board system.
const guardTolerance = 0.05

// The guard's one recovery policy (DESIGN.md §7).
const (
	// maxRetries bounds how many times one batch is re-run after a
	// transient failure or a corrupt result before the guard escalates
	// to board bisection. Three re-runs leave a batch on a healthy board
	// at a 5 % transient rate a 6e-6 chance of escalating by accident,
	// while a stuck pipeline, which fails every run, holds its batch for
	// only four passes before bisection starts.
	maxRetries = 3
	// fallbackAfter is the number of consecutive batches lost to the
	// host fallback after which the guard stops offering work to the
	// hardware at all: three in a row means no board configuration
	// verifies, and every further attempt only adds retries and
	// bisection passes to a batch the host computes anyway.
	fallbackAfter = 3
)

// GuardPolicy is kept so that callers assembling a pipeline by hand
// still compile; it has no fields and is ignored — the policy is the
// constants above.
type GuardPolicy struct{}

// Recovery counts the guard's fault-handling activity over the life of
// a GuardedEngine.
type Recovery struct {
	// Checks is the number of acceptance checks run (one per hardware
	// attempt that produced a result).
	Checks int64 `json:"checks"`
	// Retries is the number of transient-failure retries.
	Retries int64 `json:"retries"`
	// CorruptResults is the number of hardware results rejected by the
	// acceptance check.
	CorruptResults int64 `json:"corrupt_results"`
	// ExcludedBoards is the number of boards diagnosed bad and taken
	// out of service (including a final abandon-all).
	ExcludedBoards int64 `json:"excluded_boards"`
	// FallbackBatches is the number of batches computed by the host
	// fallback engine.
	FallbackBatches int64 `json:"fallback_batches"`
	// HostOnly reports that the hardware has been abandoned entirely:
	// every subsequent batch goes straight to the host engine.
	HostOnly bool `json:"host_only"`
}

// String formats the counters for run reports.
func (r Recovery) String() string {
	return fmt.Sprintf("checks=%d retries=%d corrupt=%d excluded=%d fallback=%d hostOnly=%v",
		r.Checks, r.Retries, r.CorruptResults, r.ExcludedBoards, r.FallbackBatches, r.HostOnly)
}

// GuardedEngine is the one adapter from the treecode's core.Engine to a
// System: it drives the emulated GRAPE-5 the way a production host
// drives real flaky boards. It applies the gravitational constant on
// readback, as the real GRAPE host library does (the hardware computes
// in G=1 units).
//
// Before accepting any batch it verifies the hardware against the host:
// one probe particle is replicated across every virtual-pipeline slot
// of the i-stream (one extra i-group — the timing model charges the
// same pass the real padding would cost) and each slot's force is
// compared with a float64 host reference computed from the same j-list
// — the per-run hardware sanity check of the GRAPE system papers. The
// pass is a simulated cost only: the emulator evaluates the repeated
// point once (System's pipeline reuses the sums of an i-point equal to
// its predecessor) and every slot still gets its own stuck factor, so
// every slot is still checked.
// Transient failures (bus errors, timeouts) are retried at once: the
// emulator's faults are seeded draws, so waiting clears nothing.
// Persistent corruption triggers board bisection: boards are
// excluded one at a time until the check passes, and a board that
// tests bad stays out of service, with remaining passes re-planned on
// the survivors (throughput degrades per the timing model). When no
// working configuration remains, batches fall back to core.HostEngine
// — the run completes correct-but-slow instead of dying.
//
// With the guard off (NewEngine) none of that runs: no probe slots, no
// host reference, no check, retry, bisection or fallback, and no guard
// span. A hardware error panics with a *HardwareError: by the time
// requests are flowing the host code has validated scale and ranges, so
// an error is a programming bug, like a wedged device driver.
//
// mu serialises the device and the guard's own state (the fault stream,
// the counters, verification, commit, Recovery) and every recovery
// episode from first retry to last bisection pass. It is released in one
// place: around the arithmetic of a batch's first hardware attempt, so
// concurrent callers' batches evaluate at once, as the pipelines do.
type GuardedEngine struct {
	// G is the gravitational constant applied to results.
	G float64

	unguarded bool // the guard is off: see NewEngine

	mu             sync.Mutex
	sys            *System
	host           core.HostEngine
	rec            Recovery
	obs            *obs.Observer
	consecFallback int

	// free holds the staging sets not in flight (guarded by mu), one per
	// concurrent caller. Not a sync.Pool: the race detector drops pooled
	// items at random, and the allocation gates run under it.
	free []*scratch
}

// scratch is one in-flight batch's buffers: the AoS j gather, the
// i-stream with the probe pass appended, the hardware's output and the
// evaluation scratch.
type scratch struct {
	ipos, jpos, acc []vec.V3
	pot             []float64
	eval            evalScratch
}

var _ core.Engine = (*GuardedEngine)(nil)

// NewGuardedEngine wraps sys in the fault-tolerant offload path. G=0
// is replaced by 1. The GuardPolicy argument is ignored.
func NewGuardedEngine(sys *System, g float64, _ GuardPolicy) *GuardedEngine {
	if g == 0 {
		g = 1
	}
	return &GuardedEngine{G: g, sys: sys}
}

// NewEngine wraps sys with the guard off. G=0 is replaced by 1.
func NewEngine(sys *System, g float64) *GuardedEngine {
	e := NewGuardedEngine(sys, g, GuardPolicy{})
	e.unguarded = true
	return e
}

// SetObserver attaches a telemetry observer: guard overhead (probe
// references, acceptance checks, retries, bisection re-runs) is
// recorded as the guard phase. The fault-handling events themselves
// are counted once, in Recovery.
func (e *GuardedEngine) SetObserver(o *obs.Observer) {
	e.mu.Lock()
	e.obs = o
	e.mu.Unlock()
}

// Recovery returns a snapshot of the fault-handling counters.
func (e *GuardedEngine) Recovery() Recovery {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rec
}

// Accumulate implements core.Engine.
func (e *GuardedEngine) Accumulate(req *core.Request) {
	ni := len(req.IPos)
	if ni == 0 || req.J.N == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rec.HostOnly {
		e.fallback(req)
		return
	}
	if len(e.free) == 0 {
		e.free = append(e.free, new(scratch))
	}
	st := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	if e.unguarded {
		st.stage(req, ni)
		if err := e.attempt(req.IPos, req, st, true); err != nil {
			panic(hardwareError(err))
		}
		e.commit(req, st)
		e.free = append(e.free, st)
		return
	}
	ok := e.tryHardware(req, st)
	e.free = append(e.free, st)
	if ok {
		e.consecFallback = 0
		return
	}
	e.fallback(req)
	e.consecFallback++
	if e.consecFallback >= fallbackAfter {
		e.abandonHardware()
	}
}

// fallback computes the batch on the host reference engine — the exact
// arithmetic of core.HostEngine, so a fully-degraded run is bitwise
// identical to an EngineHost run.
func (e *GuardedEngine) fallback(req *core.Request) {
	e.host.G = e.G
	e.host.Eps = e.sys.Eps()
	e.host.Accumulate(req)
	e.rec.FallbackBatches++
}

// abandonHardware takes every remaining board out of service and routes
// all future batches to the host.
func (e *GuardedEngine) abandonHardware() {
	for b := 0; b < e.sys.hw.boards; b++ {
		if !e.sys.BoardExcluded(b) {
			// b ranges over the installed boards, so the only SetBoardExcluded
			// failure (index out of range) cannot occur.
			_ = e.sys.SetBoardExcluded(b, true)
			e.rec.ExcludedBoards++
		}
	}
	e.rec.HostOnly = true
}

// tryHardware runs the batch through the verified hardware path,
// escalating from retries to board bisection. It reports whether the
// batch was accepted (results committed into req).
func (e *GuardedEngine) tryHardware(req *core.Request, st *scratch) bool {
	if e.sys.ActiveBoards() == 0 {
		return false
	}
	if e.computeVerified(req, st, true) {
		return true
	}
	// Persistent failure. Bisect: try excluding each active board in
	// turn; the first configuration that verifies wins and the
	// excluded board stays out of service for good.
	if e.sys.ActiveBoards() > 1 {
		for b := 0; b < e.sys.hw.boards; b++ {
			if e.sys.BoardExcluded(b) {
				continue
			}
			// b ranges over the installed boards, so the only SetBoardExcluded
			// failure (index out of range) cannot occur.
			_ = e.sys.SetBoardExcluded(b, true)
			if e.computeVerified(req, st, false) {
				e.rec.ExcludedBoards++
				return true
			}
			_ = e.sys.SetBoardExcluded(b, false)
		}
	}
	return false
}

// computeVerified runs one batch with the acceptance check, retrying
// transient failures and corrupt results up to maxRetries times. On
// success the (G-scaled) results are committed into req. With overlap
// set — a batch's first verification — the first attempt's arithmetic
// runs with mu released; a result that then fails the check is re-run
// under the lock, against whatever board set stands by then, and one
// that passes is committed even if the hardware has been abandoned since.
func (e *GuardedEngine) computeVerified(req *core.Request, st *scratch, overlap bool) bool {
	ni := len(req.IPos)
	vp := VirtualPipesPerBoard
	tg := e.obs.Start(obs.PhaseGuard)
	probe := e.probePoint()
	refAcc, refPot := e.hostProbeForce(probe, req)

	st.ipos = grown(st.ipos, ni+vp)
	copy(st.ipos, req.IPos)
	for s := 0; s < vp; s++ {
		st.ipos[ni+s] = probe
	}
	// Gather once, outside the retry loop: re-runs and bisection passes
	// reuse it.
	st.stage(req, ni+vp)
	tg.Stop()

	for attempt := 0; attempt <= maxRetries; attempt++ {
		// The first attempt's Compute is the batch's real work; every
		// re-run after a fault is recovery overhead.
		var retry obs.Timer
		if attempt > 0 {
			retry = e.obs.Start(obs.PhaseGuard)
		}
		err := e.attempt(st.ipos, req, st, overlap && attempt == 0)
		retry.Stop()
		if err != nil {
			if IsTransient(err) {
				e.rec.Retries++
				continue
			}
			// Non-transient errors with boards still active are host
			// programming bugs (scale, lengths), same contract as the
			// unguarded engine; all-excluded is handled by the caller.
			if e.sys.ActiveBoards() == 0 {
				return false
			}
			panic(hardwareError(err))
		}
		e.rec.Checks++
		tv := e.obs.Start(obs.PhaseGuard)
		ok := e.verifyProbe(st.acc[ni:], st.pot[ni:], refAcc, refPot)
		tv.Stop()
		if ok {
			e.commit(req, st)
			return true
		}
		e.rec.CorruptResults++
	}
	return false
}

// stage sizes st's outputs for n i-particles and gathers the request's
// SoA source list into the AoS layout the hardware DMA descriptors use.
func (st *scratch) stage(req *core.Request, n int) {
	st.acc, st.pot = grown(st.acc, n), grown(st.pot, n)
	st.jpos = grown(st.jpos, req.J.N)
	for j := range st.jpos {
		st.jpos[j] = vec.V3{X: req.J.X[j], Y: req.J.Y[j], Z: req.J.Z[j]}
	}
}

// attempt zeroes st's outputs and runs ipos against the staged j-list on
// the hardware: begin and finish under mu, and with release set the
// arithmetic with mu released, so concurrent callers' batches evaluate
// at once.
func (e *GuardedEngine) attempt(ipos []vec.V3, req *core.Request, st *scratch, release bool) error {
	for i := range st.acc {
		st.acc[i] = vec.Zero
		st.pot[i] = 0
	}
	a, err := e.sys.begin(ipos, st.jpos, req.J.M[:req.J.N], st.acc, st.pot, &st.eval)
	if err != nil {
		return err
	}
	if release {
		e.mu.Unlock()
	}
	a.evaluate()
	if release {
		e.mu.Lock()
	}
	e.sys.finish(&a)
	return nil
}

// commit adds the batch's G-scaled results into req.
func (e *GuardedEngine) commit(req *core.Request, st *scratch) {
	for i := range req.IPos {
		req.Acc[i] = req.Acc[i].MulAdd(e.G, st.acc[i])
		req.Pot[i] += e.G * st.pot[i]
	}
}

// hardwareError is err as the *HardwareError a failed batch panics with.
func hardwareError(err error) *HardwareError {
	var hw *HardwareError
	if !errors.As(err, &hw) {
		hw = &HardwareError{Op: "compute", Err: err}
	}
	return hw
}

// probePoint returns the acceptance-check position: a fixed, off-lattice
// fraction of the current scale window (deterministic, never on a grid
// point or range edge, and extremely unlikely to coincide with a real
// particle).
func (e *GuardedEngine) probePoint() vec.V3 {
	lo, hi, ok := e.sys.ScaleRange()
	if !ok {
		return vec.Zero // Compute will fail with the proper error
	}
	const phi = 0.38196601125010515 // 2 - golden ratio
	p := lo + phi*(hi-lo)
	return vec.V3{X: p, Y: p, Z: p}
}

// hostProbeForce computes the float64 reference force and potential on
// the probe from the batch's own j-list — O(nj), the price of one
// extra i-particle. It consumes the request's SoA list directly through
// the shared hostk pair kernel (G=1 units, matching the hardware),
// passing the probe as both points and keeping the first result.
func (e *GuardedEngine) hostProbeForce(probe vec.V3, req *core.Request) (vec.V3, float64) {
	eps := e.sys.Eps()
	acc, pot, _, _ := hostk.P2PPair(probe, probe, &req.J, eps*eps)
	return acc, pot
}

// verifyProbe checks every virtual-pipeline slot's probe force against
// the host reference. The potential is the primary quantity — all its
// terms share a sign, so it cannot cancel to zero — while the
// acceleration check uses the potential's magnitude over the scale
// window as an absolute floor against pathological cancellation of the
// true force at the probe point.
func (e *GuardedEngine) verifyProbe(acc []vec.V3, pot []float64, refAcc vec.V3, refPot float64) bool {
	lo, hi, _ := e.sys.ScaleRange()
	floor := 0.0
	if hi > lo {
		floor = math.Abs(refPot) / (hi - lo)
	}
	for s := range acc {
		if math.Abs(pot[s]-refPot) > guardTolerance*math.Abs(refPot) {
			return false
		}
		if acc[s].Sub(refAcc).Norm() > guardTolerance*(refAcc.Norm()+floor) {
			return false
		}
	}
	return true
}
