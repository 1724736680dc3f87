package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. The benchmark records spans from its own files, around the
// calls into each layer; spans inside the program are a later change.
const (
	spanStep       = "step"       // one integrator step (or block)
	spanForce      = "force"      // the integrator's force callback
	spanSetScale   = "setscale"   // g5 SetScale re-ranging
	spanCompute    = "compute"    // Treecode.ComputeForces[Active]
	spanAccumulate = "accumulate" // one Engine.Accumulate batch
	spanFlush      = "flush"      // BatchedEngine.Flush barrier
	spanSave       = "save"       // ckpt Store.Save
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; Parent is the index of the span that caused this one
// (-1 for a root); Step is the shared identifier of one step's spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Step   int32  `json:"step"`
	// NI and NJ are the batch shape of an accumulate span.
	NI int32 `json:"ni,omitempty"`
	NJ int32 `json:"nj,omitempty"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. begin/end bracket the structural spans of the stepping
// goroutine; leaf records a finished span in one call, which is what the
// concurrent walk workers use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	step  int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextStep opens a new step identifier; spans recorded from here on
// carry it.
func (t *tracer) nextStep() {
	t.mu.Lock()
	t.step++
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Step: t.step})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

func (t *tracer) leaf(name string, parent int32, start int64, ni, nj int) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent,
		Step: t.step, NI: int32(ni), NJ: int32(nj)})
	t.mu.Unlock()
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stepBreakdown is one step's wall time decomposed by layer. Self time
// is a span minus the union of its children: the two walk workers run
// their engine batches concurrently, so summed child durations would
// count that interval twice and the parts would not close on the whole.
type stepBreakdown struct {
	step          int32
	wall          float64 // step span
	integrateSelf float64 // step minus its force callbacks
	forceSelf     float64 // callback glue around setscale and compute
	setScale      float64
	computeTotal  float64 // every compute span, whole
	coreSelf      float64 // compute minus the union of engine spans
	engineWall    float64 // union of accumulate and flush spans
	accumulate    float64 // summed accumulate durations (busy time)
	flush         float64
	calls         int
	niSum, njSum  int64
}

// closure returns the share of the step wall the layer parts fail to
// account for. Properly nested spans make it 0 up to rounding; a child
// that outlives its parent makes it visible.
func (b stepBreakdown) closure() float64 {
	if b.wall == 0 {
		return 0
	}
	parts := b.integrateSelf + b.forceSelf + b.setScale + b.coreSelf + b.engineWall
	d := (b.wall - parts) / b.wall
	if d < 0 {
		d = -d
	}
	return d
}

// unionLength returns the total length of the union of the intervals,
// clipped to [lo, hi].
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// breakdowns decomposes every recorded step. Save spans sit outside the
// steps and are returned separately, in seconds.
func (t *tracer) breakdowns() (steps []stepBreakdown, saves []float64) {
	children := make(map[int32][]int32)
	for i, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], int32(i))
		}
	}
	// self is the span's duration minus the union of its children.
	self := func(id int32) (selfNS, unionNS int64) {
		sp := t.spans[id]
		iv := make([][2]int64, 0, len(children[id]))
		for _, c := range children[id] {
			iv = append(iv, [2]int64{t.spans[c].Start, t.spans[c].End})
		}
		u := unionLength(iv, sp.Start, sp.End)
		return sp.End - sp.Start - u, u
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }

	for i, sp := range t.spans {
		switch sp.Name {
		case spanSave:
			saves = append(saves, sec(sp.End-sp.Start))
		case spanStep:
			b := stepBreakdown{step: sp.Step, wall: sec(sp.End - sp.Start)}
			s, _ := self(int32(i))
			b.integrateSelf = sec(s)
			for _, f := range children[int32(i)] {
				fs, _ := self(f)
				b.forceSelf += sec(fs)
				for _, c := range children[f] {
					csp := t.spans[c]
					switch csp.Name {
					case spanSetScale:
						b.setScale += sec(csp.End - csp.Start)
					case spanCompute:
						cs, cu := self(c)
						b.computeTotal += sec(csp.End - csp.Start)
						b.coreSelf += sec(cs)
						b.engineWall += sec(cu)
						for _, e := range children[c] {
							esp := t.spans[e]
							d := sec(esp.End - esp.Start)
							if esp.Name == spanFlush {
								b.flush += d
								continue
							}
							b.accumulate += d
							b.calls++
							b.niSum += int64(esp.NI)
							b.njSum += int64(esp.NJ)
						}
					}
				}
			}
			steps = append(steps, b)
		}
	}
	return steps, saves
}
