package octree

import (
	"fmt"
	"time"

	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/obs"
)

// BuilderOptions configure a Builder.
type BuilderOptions struct {
	// LeafCap is the maximum number of particles in a leaf. 0 means
	// the package constant LeafCap.
	LeafCap int
	// Workers is ignored: the build is one serial recursion. The
	// field stays only because the benchmark harness sets it.
	Workers int
	// Obs, when non-nil, receives the Morton-sort and tree-build phase
	// spans of each Build.
	Obs *obs.Observer
}

// Builder owns all scratch of the per-step tree construction: Morton
// key and sort-order buffers, the particle permutation scratch and the
// node arena. A Builder reused across steps makes the whole sort+build
// allocation-free in steady state (only the small Tree header is
// allocated per build).
//
// A Builder is not safe for concurrent use; trees it returns borrow its
// node arena and stay valid only until the next Build call.
type Builder struct {
	leafCap int
	ob      *obs.Observer

	keys   []morton.Key
	sorted []morton.Key
	orderA []int
	orderB []int
	perm   nbody.PermScratch

	arena []Node

	prev *Tree
}

// NewBuilder returns a Builder with the given options.
func NewBuilder(o BuilderOptions) *Builder {
	lc := o.LeafCap
	if lc <= 0 {
		lc = LeafCap
	}
	return &Builder{leafCap: lc, ob: o.Obs}
}

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
	nb := nodeBuilder{nodes: b.arena[:0], sys: s, keys: b.sorted, leafCap: b.leafCap}
	nb.build(cube, 0, int32(n), 0, 0)
	b.arena = nb.nodes
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
