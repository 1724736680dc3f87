package octree

import (
	"fmt"
	"math"
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
// key and sort-order buffers, the particle permutation's visit marks
// and the node arena. A Builder reused across steps makes the whole
// sort+build allocation-free in steady state (only the small Tree
// header is allocated per build).
//
// A Builder is not safe for concurrent use; trees it returns borrow its
// node arena and stay valid only until the next Build call.
type Builder struct {
	leafCap int
	ob      *obs.Observer

	keys   []morton.Key
	orderA []int32
	orderB []int32
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

// maxN is the largest N a build takes: sort orders and node and group
// ranges are int32.
const maxN = math.MaxInt32

// checkN refuses an N the build cannot index.
func checkN(n int) error {
	switch {
	case n == 0:
		return fmt.Errorf("octree: empty system")
	case int64(n) > maxN:
		return fmt.Errorf("octree: N = %d exceeds the limit of %d particles (int32 indices)", n, maxN)
	}
	return nil
}

// Build sorts the system into Morton order (mutating it) and builds the
// octree into the Builder's arena, reusing all scratch from the
// previous call. The returned tree is a fresh header borrowing the
// arena: it is valid until the next Build.
func (b *Builder) Build(s *nbody.System) (*Tree, error) {
	n := s.N()
	if err := checkN(n); err != nil {
		return nil, err
	}
	cube := rootCube(s)

	t0 := time.Now()
	b.keys = morton.KeysInto(b.keys, s.Pos, cube)
	// Pre-grow both radix ping-pong buffers so the sort never grows
	// them internally (the returned permutation aliases one of them).
	if cap(b.orderA) < n {
		b.orderA = make([]int32, n)
	}
	if cap(b.orderB) < n {
		b.orderB = make([]int32, n)
	}
	order := morton.SortOrderRadixInto(b.keys, b.orderA, b.orderB)
	// The keys move with the particles, so they come out sorted.
	if err := s.ApplyOrderScratch(order, b.keys, &b.perm); err != nil {
		return nil, err
	}
	b.ob.AddSeconds(obs.PhaseMortonSort, time.Since(t0).Seconds())

	t1 := time.Now()
	nb := nodeBuilder{nodes: b.arena[:0], sys: s, keys: b.keys, leafCap: b.leafCap}
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
