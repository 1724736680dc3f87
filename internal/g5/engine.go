package g5

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/vec"
)

// Engine adapts a System to the treecode's core.Engine interface. It
// serialises the device — one bus, one fault stream, one set of
// counters: mu is held around System.begin and finish — but not the
// arithmetic: concurrent callers' batches evaluate at once, as the
// pipelines do. It applies the gravitational constant on readback, as
// the real GRAPE host library does (the hardware computes in G=1 units).
type Engine struct {
	// G is the gravitational constant applied to hardware results.
	G float64

	mu   sync.Mutex
	sys  *System
	pool sync.Pool // *scratch staging buffers
}

// scratch is one in-flight batch's buffers: the AoS j gather, the
// hardware's output, the evaluation scratch and, for the guard, the
// i-stream with the probe pass appended.
type scratch struct {
	ipos, jpos, acc []vec.V3
	pot             []float64
	eval            evalScratch
}

var _ core.Engine = (*Engine)(nil)

// NewEngine wraps sys. G=0 is replaced by 1.
func NewEngine(sys *System, g float64) *Engine {
	if g == 0 {
		g = 1
	}
	e := &Engine{G: g, sys: sys}
	e.pool.New = func() any { return new(scratch) }
	return e
}

// System returns the wrapped hardware (for counter access). Callers
// must not run Compute on it directly while the engine is in use.
func (e *Engine) System() *System { return e.sys }

// Accumulate implements core.Engine by dispatching the request to the
// hardware. Hardware errors panic with a *HardwareError: by the time
// requests are flowing the host code has already validated scale and
// ranges, so an error here is a programming bug, like a wedged device
// driver. Callers that must survive flaky hardware use GuardedEngine
// instead, which retries, degrades and falls back rather than dying.
func (e *Engine) Accumulate(req *core.Request) {
	ni := len(req.IPos)
	sc := e.pool.Get().(*scratch)
	sc.acc, sc.pot = grown(sc.acc, ni), grown(sc.pot, ni)
	acc, pot := sc.acc, sc.pot
	for i := range acc {
		acc[i] = vec.Zero
		pot[i] = 0
	}

	// Gather the SoA source list into the AoS layout the hardware DMA
	// descriptors use; only the J.N real lanes are marshalled (padding
	// stays on the host). The mass lanes alias the request directly.
	nj := req.J.N
	sc.jpos = grown(sc.jpos, nj)
	jpos := sc.jpos
	for j := 0; j < nj; j++ {
		jpos[j] = vec.V3{X: req.J.X[j], Y: req.J.Y[j], Z: req.J.Z[j]}
	}

	e.mu.Lock()
	a, err := e.sys.begin(req.IPos, jpos, req.J.M[:nj], acc, pot, &sc.eval)
	e.mu.Unlock()
	if err == nil {
		err = a.evaluate()
	}
	if err == nil {
		e.mu.Lock()
		e.sys.finish(&a)
		e.mu.Unlock()
	}
	if err != nil {
		var hw *HardwareError
		if !errors.As(err, &hw) {
			hw = &HardwareError{Op: "compute", Err: err}
		}
		panic(hw)
	}

	for i := range acc {
		req.Acc[i] = req.Acc[i].MulAdd(e.G, acc[i])
		req.Pot[i] += e.G * pot[i]
	}
	e.pool.Put(sc)
}
