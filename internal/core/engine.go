// Package core implements the paper's primary contribution: the
// Barnes-Hut treecode with Barnes' (1990) modified algorithm and the
// GRAPE offload schedule of Makino (1991).
//
// The modified algorithm groups neighbouring particles (tree cells with
// at most Ncrit members) and builds ONE interaction list per group,
// shared by all its members; forces from fellow group members are
// computed directly by the force pipeline. This cuts the host's tree
// traversal cost by roughly the group population n_g while lengthening
// the lists the hardware must chew through — the trade-off whose
// optimum the paper locates at n_g ≈ 2000 for the DS10 + GRAPE-5
// configuration.
//
// Force evaluation is abstracted behind the Engine interface so the
// identical traversal drives the float64 host engine, the emulated
// GRAPE-5 pipeline, or a pure counting engine for large-N statistics.
package core

import (
	"sync/atomic"

	"repro/internal/hostk"
	"repro/internal/vec"
)

// Request is one batch of pairwise force work handed to an Engine: the
// accelerations and potentials exerted by the sources in J on the field
// points IPos are accumulated into Acc and Pot.
type Request struct {
	// IPos holds the field points ("i-particles").
	IPos []vec.V3
	// J holds the sources ("j-particles") in the struct-of-arrays
	// layout the host kernels consume: real particles and accepted
	// cells' centres of mass alike. Hardware engines marshal J into
	// their AoS DMA descriptors.
	J hostk.JList
	// Acc and Pot receive the accumulated acceleration and specific
	// potential per field point. Both must have len(IPos); engines add
	// into them.
	Acc []vec.V3
	Pot []float64
}

// Engine evaluates softened gravitational interactions. Engines must
// skip pairs at exactly zero separation (the self-interaction guard:
// a group's own members appear in its interaction list, and the pipeline
// contributes nothing for i==j). Implementations must be safe for
// concurrent Accumulate calls.
type Engine interface {
	Accumulate(req *Request)
}

// BatchedEngine is an Engine with a per-force-call settle point. Its
// results are committed when Accumulate returns, like any Engine's;
// Flush settles the engine's telemetry and returns the failure captured
// since the previous Flush (a batch that failed inside Accumulate). The
// treecode calls Flush after the walk drains and returns its error.
type BatchedEngine interface {
	Engine
	Flush() error
}

// HostEngine is the reference force pipeline: exact float64 arithmetic
// on the host, Plummer softening. It is the "general purpose computer"
// baseline of the paper's accuracy comparison and the engine used when
// no GRAPE is attached.
type HostEngine struct {
	// G is the gravitational constant.
	G float64
	// Eps is the Plummer softening length.
	Eps float64
}

// Accumulate implements Engine through the SoA pair kernel, two field
// points a sweep — bitwise identical to the retired scalar loop
// (hostk.ScalarAccumulate, pinned by the hostk conformance and fuzz
// suites and the pre-SoA trajectory goldens). An odd last point is
// passed twice and the copy dropped.
func (e *HostEngine) Accumulate(req *Request) {
	eps2 := e.Eps * e.Eps
	g := e.G
	ipos := req.IPos
	for i := 0; i < len(ipos); i += 2 {
		k := min(i+1, len(ipos)-1)
		a, pa, b, pb := hostk.P2PPair(ipos[i], ipos[k], &req.J, eps2)
		req.Acc[i] = req.Acc[i].Add(a.Scale(g))
		req.Pot[i] += g * pa
		if k != i {
			req.Acc[k] = req.Acc[k].Add(b.Scale(g))
			req.Pot[k] += g * pb
		}
	}
}

// CountEngine performs no arithmetic; it only tallies the interactions
// it is asked for. It makes large-N performance statistics (interaction
// counts, list lengths) cheap to measure: the paper's Table-equivalent
// numbers are pure counts.
type CountEngine struct {
	interactions atomic.Int64
}

// Accumulate implements Engine by counting.
func (e *CountEngine) Accumulate(req *Request) {
	e.interactions.Add(int64(len(req.IPos)) * int64(req.J.N))
}

// Interactions returns the running total of i×j pairs requested.
func (e *CountEngine) Interactions() int64 { return e.interactions.Load() }

// Reset zeroes the counter.
func (e *CountEngine) Reset() { e.interactions.Store(0) }
