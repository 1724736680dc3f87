package octree

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/vec"
)

// parallelMinN is the particle count below which the parallel build is
// not worth the plan/stitch overhead and the Builder stays serial. It
// is a variable only so conformance tests can force the parallel path
// at small N; production code treats it as a constant.
var parallelMinN = 4096

// maxSplitLevel bounds the split-level search: 8^8 cells is far beyond
// any sane worker count, so deeper frontiers never help.
const maxSplitLevel = 8

// BuilderOptions configure a Builder.
type BuilderOptions struct {
	// LeafCap is the maximum number of particles in a leaf. 0 means
	// the package constant LeafCap.
	LeafCap int
	// Workers is the number of goroutines used for subtree
	// construction. 0 means GOMAXPROCS; 1 forces the serial build.
	Workers int
	// Obs, when non-nil, receives the Morton-sort and tree-build phase
	// spans of each Build.
	Obs *obs.Observer
}

// Builder owns all scratch of the per-step tree construction: Morton
// key and sort-order buffers, the particle permutation scratch, the
// node arena, and the parallel build's plan and per-subtree arenas. A
// Builder reused across steps makes the whole sort+build allocation-free
// in steady state (only the small Tree header is allocated per build).
//
// The parallel build is bitwise-deterministic: it produces a node slice
// byte-identical to the serial build's, independent of worker count and
// scheduling. See the determinism argument on buildParallel.
//
// A Builder is not safe for concurrent use; trees it returns borrow its
// node arena and stay valid only until the next Build call.
type Builder struct {
	leafCap int
	workers int
	ob      *obs.Observer

	keys   []morton.Key
	sorted []morton.Key
	orderA []int
	orderB []int
	perm   nbody.PermScratch

	arena []Node

	// Parallel-build plan scratch.
	spine      []spineNode
	tasks      []buildTask
	taskArenas [][]Node
	spanA      []keySpan
	spanB      []keySpan
	cursor     atomic.Int64

	// Worker call context, set only for the duration of one parallel
	// build (the Builder itself is single-caller).
	wsys  *nbody.System
	wkeys []morton.Key

	prev *Tree
}

// spineNode is a planned internal node above the split frontier. Child
// refs are spine indices when >= 0, NoChild when -1, and encoded task
// references -(ti+2) when <= -2.
type spineNode struct {
	box          vec.Box
	start, count int32
	oct          int
	children     [8]int32
}

// buildTask is one independently buildable subtree at or above the
// split frontier.
type buildTask struct {
	box          vec.Box
	start, count int32
	level        int32
	oct          int
}

// keySpan is a particle index range used by the split-level search.
type keySpan struct{ start, count int32 }

// NewBuilder returns a Builder with the given options.
func NewBuilder(o BuilderOptions) *Builder {
	lc := o.LeafCap
	if lc <= 0 {
		lc = LeafCap
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Builder{leafCap: lc, workers: w, ob: o.Obs}
}

// Workers returns the builder's worker count.
func (b *Builder) Workers() int { return b.workers }

// Build sorts the system into Morton order (mutating it) and builds the
// octree into the Builder's arena, reusing all scratch from the
// previous call. The returned tree is a fresh header borrowing the
// arena: it is valid until the next Build.
func (b *Builder) Build(s *nbody.System) (*Tree, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("octree: empty system")
	}
	cube := rootCube(s)

	t0 := time.Now()
	b.keys = morton.KeysInto(b.keys, s.Pos, cube)
	// Pre-grow both radix ping-pong buffers so the sort never grows
	// them internally (the returned permutation aliases one of them).
	if cap(b.orderA) < n {
		b.orderA = make([]int, n)
	}
	if cap(b.orderB) < n {
		b.orderB = make([]int, n)
	}
	order := morton.SortOrderRadixInto(b.keys, b.orderA, b.orderB)
	if err := s.ApplyOrderScratch(order, &b.perm); err != nil {
		return nil, err
	}
	if cap(b.sorted) < n {
		b.sorted = make([]morton.Key, n)
	}
	b.sorted = b.sorted[:n]
	for i, idx := range order {
		b.sorted[i] = b.keys[idx]
	}
	b.ob.AddSeconds(obs.PhaseMortonSort, time.Since(t0).Seconds())

	t1 := time.Now()
	if b.workers > 1 && n >= parallelMinN {
		b.buildParallel(s, b.sorted, cube, int32(n))
	} else {
		nb := nodeBuilder{nodes: b.arena[:0], sys: s, keys: b.sorted, leafCap: b.leafCap}
		nb.build(cube, 0, int32(n), 0, 0)
		b.arena = nb.nodes
	}
	b.ob.AddSeconds(obs.PhaseTreeBuild, time.Since(t1).Seconds())

	t := &Tree{Nodes: b.arena, Sys: s, cube: cube}
	// Recycle the dead previous tree's groups-cache storage so the
	// steady-state Groups call allocates nothing either.
	if p := b.prev; p != nil {
		t.groups, t.groupStack = p.groups[:0], p.groupStack[:0]
		p.groups, p.groupStack = nil, nil
	}
	b.prev = t
	return t, nil
}

// buildParallel constructs the tree with b.workers goroutines while
// keeping the node slice byte-identical to the serial build.
//
// Determinism argument: the serial build is a preorder DFS, so every
// subtree occupies a contiguous, pre-determined node-index range whose
// internal Next indices are (range base + local preorder offset). The
// plan pass replays the serial descent down to a split level,
// recording the spine of internal nodes and the frontier subtrees as
// tasks in serial visit order. Workers build each task into its own
// arena — the exact recursion the serial build would run, so node
// contents and local layout are bit-identical regardless of which
// worker runs it or when. The stitch pass then emits spine nodes and
// task arenas in the planned preorder, offsetting Next indices by each
// subtree's base; spine aggregation reuses aggregateChildren, summing
// children in octant order exactly as the serial recursion does. Every float is therefore computed by the same
// code on the same operands in the same order as the serial build;
// scheduling only changes when, not what.
func (b *Builder) buildParallel(s *nbody.System, keys []morton.Key, cube vec.Box, n int32) {
	split := b.pickSplitLevel(keys, n)
	b.spine = b.spine[:0]
	b.tasks = b.tasks[:0]
	rootRef := b.plan(keys, cube, 0, n, 0, 0, split)
	for len(b.taskArenas) < len(b.tasks) {
		b.taskArenas = append(b.taskArenas, nil)
	}

	b.wsys, b.wkeys = s, keys
	b.cursor.Store(0)
	nw := b.workers
	if nw > len(b.tasks) {
		nw = len(b.tasks)
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go b.taskWorker(&wg)
	}
	wg.Wait()
	b.wsys, b.wkeys = nil, nil

	b.arena = b.arena[:0]
	if rootRef >= 0 {
		b.emitSpine(rootRef)
	} else {
		b.emitTask(-(rootRef + 2))
	}
}

// pickSplitLevel returns the first tree level whose frontier holds at
// least b.workers splittable subtrees, walking the implicit tree
// breadth-first over the sorted keys. Bounded by maxSplitLevel so
// pathological clustering cannot make the plan itself expensive.
func (b *Builder) pickSplitLevel(keys []morton.Key, n int32) int32 {
	cur, nxt := b.spanA[:0], b.spanB[:0]
	cur = append(cur, keySpan{0, n})
	level := int32(0)
	for level < maxSplitLevel && level < morton.Bits-1 {
		splittable := 0
		for _, sp := range cur {
			if int(sp.count) > b.leafCap {
				splittable++
			}
		}
		if splittable == 0 || splittable >= b.workers {
			break
		}
		nxt = nxt[:0]
		for _, sp := range cur {
			if int(sp.count) <= b.leafCap {
				continue
			}
			bounds := octantBounds(keys, sp.start, sp.count, level)
			for oct := 0; oct < 8; oct++ {
				if lo, hi := bounds[oct], bounds[oct+1]; hi > lo {
					nxt = append(nxt, keySpan{lo, hi - lo})
				}
			}
		}
		cur, nxt = nxt, cur
		level++
	}
	b.spanA, b.spanB = cur, nxt
	return level
}

// plan replays the serial descent down to the split level, recording
// spine nodes and frontier tasks in serial preorder. It returns a child
// ref: a spine index when >= 0, or -(task index + 2).
func (b *Builder) plan(keys []morton.Key, box vec.Box, start, count, level int32, oct int, split int32) int32 {
	if int(count) <= b.leafCap || level >= morton.Bits-1 || level == split {
		ti := int32(len(b.tasks))
		b.tasks = append(b.tasks, buildTask{box: box, start: start, count: count, level: level, oct: oct})
		return -(ti + 2)
	}
	si := int32(len(b.spine))
	b.spine = append(b.spine, spineNode{box: box, start: start, count: count, oct: oct})
	for i := range b.spine[si].children {
		b.spine[si].children[i] = NoChild
	}
	bounds := octantBounds(keys, start, count, level)
	for c := 7; c >= 0; c-- {
		if lo, hi := bounds[c], bounds[c+1]; hi > lo {
			b.spine[si].children[c] = b.plan(keys, box.Child(c), lo, hi-lo, level+1, c, split)
		}
	}
	return si
}

// taskWorker pulls task indices off the shared atomic cursor and builds
// each subtree into its dedicated, reused arena slot. Dispatch order is
// irrelevant to the result: every task writes only its own slot.
func (b *Builder) taskWorker(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		ti := int(b.cursor.Add(1)) - 1
		if ti >= len(b.tasks) {
			return
		}
		t := b.tasks[ti]
		nb := nodeBuilder{nodes: b.taskArenas[ti][:0], sys: b.wsys, keys: b.wkeys, leafCap: b.leafCap}
		nb.build(t.box, t.start, t.count, t.level, t.oct)
		b.taskArenas[ti] = nb.nodes
	}
}

// emitSpine appends spine node si and its planned subtrees to the arena
// in preorder, then aggregates its mass and COM exactly as the serial
// build's bottom-up pass does.
func (b *Builder) emitSpine(si int32) {
	sn := b.spine[si]
	var idx int32
	b.arena, idx = newNode(b.arena, sn.box, sn.start, sn.count, sn.oct)
	for c := 7; c >= 0; c-- {
		if ref := sn.children[c]; ref >= 0 {
			b.emitSpine(ref)
		} else if ref != NoChild {
			b.emitTask(-(ref + 2))
		}
	}
	b.arena[idx].Next = int32(len(b.arena))
	aggregateChildren(b.arena, idx)
}

// emitTask appends a built subtree arena at the current end of the node
// arena, rebasing its local Next indices.
func (b *Builder) emitTask(ti int32) {
	base := int32(len(b.arena))
	b.arena = append(b.arena, b.taskArenas[ti]...)
	for i := int(base); i < len(b.arena); i++ {
		b.arena[i].Next += base
	}
}
