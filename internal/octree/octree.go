// Package octree builds the Barnes-Hut octree. Particles are sorted
// along the Morton curve so every cell owns a contiguous index range;
// cells are split recursively by key octant with binary searches into
// the sorted key array. The centre-of-mass pass runs bottom-up during
// construction.
//
// The contiguous-range property is what makes Barnes' (1990) modified
// algorithm cheap: a particle group is just an index range, and the
// GRAPE host interface can stream it without gathering.
package octree

import (
	"fmt"
	"math"

	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/vec"
)

// NoChild marks an absent child slot.
const NoChild = int32(-1)

// LeafCap is the leaf capacity every production tree is built with:
// the maximum number of particles in a leaf.
const LeafCap = 8

// Node is one octree cell. The fields Tree.Walk reads come first,
// packed into the record's first 56 bytes.
type Node struct {
	// COM is the centre of mass of the cell's particles.
	COM vec.V3
	// Mass is the total mass in the cell.
	Mass float64
	// Size is the cell edge length.
	Size float64
	// Start and Count give the cell's particle index range in tree
	// (Morton) order.
	Start, Count int32
	// Next is the index one past this cell's subtree: the cell the walk
	// goes to when it accepts or finishes this one (see Tree).
	Next int32
	// Leaf marks cells that were not subdivided.
	Leaf bool
	// Level is the subdivision depth (root = 0, at most morton.Bits-1).
	Level int16
	// Box is the cubic cell volume.
	Box vec.Box
	// Children holds node indices of the up-to-8 children; NoChild
	// marks empty octants. Leaf nodes have all slots NoChild.
	Children [8]int32
}

// Tree is a built Barnes-Hut octree over a particle system. The system
// is reordered into Morton order by Builder.Build; Tree keeps a
// reference to its arrays.
//
// Nodes are stored in walk order: preorder with children in descending
// octant order. A cell's subtree is the index range [i, Nodes[i].Next),
// its first child (if any) is i+1, and each further child starts at its
// previous sibling's Next. A tree walk is therefore one forward loop
// over Nodes that steps to i+1 to open a cell and jumps to Next to skip
// it. Particle ranges still run in ascending octant order, so a cell's
// children occupy its Morton range from the last stored to the first.
//
// Trees borrow their Builder's node arena: they stay valid until the
// Builder's next Build call.
type Tree struct {
	// Nodes holds all cells; Nodes[0] is the root.
	Nodes []Node
	// Sys is the particle system the tree indexes (in tree order).
	Sys *nbody.System

	// groups caches the most recent Groups(ncrit) result. The cache is
	// born invalid on every (re)build — groupsNcrit 0 matches no valid
	// request — and survives Refresh, which changes masses and centres
	// of mass but not the cell topology the group ranges come from.
	groups      []Group
	groupsNcrit int
	groupStack  []int32
}

// rootCube returns the cubic bounding volume of the system, with the
// degenerate all-coincident case given unit size so geometry stays
// finite.
func rootCube(s *nbody.System) vec.Box {
	cube := s.Bounds().Cube()
	if cube.MaxEdge() == 0 {
		cube = vec.NewBox(cube.Min.Sub(vec.V3{X: 0.5, Y: 0.5, Z: 0.5}),
			cube.Min.Add(vec.V3{X: 0.5, Y: 0.5, Z: 0.5}))
	}
	return cube
}

// octantEnd returns the first index in [lo, hi) whose key's octant at
// the given level exceeds oct — the end of oct's run in the sorted key
// array. Hand-rolled binary search: the per-node sort.Search closure
// was the build recursion's only heap allocation.
func octantEnd(keys []morton.Key, lo, hi, level int32, oct int) int32 {
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if keys[mid].OctantAtLevel(int(level)) <= oct {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// octantBounds splits the sorted key range [start, start+count) by
// octant at the given level: octant oct owns [b[oct], b[oct+1]).
func octantBounds(keys []morton.Key, start, count, level int32) (b [9]int32) {
	b[0] = start
	for oct := 0; oct < 8; oct++ {
		b[oct+1] = octantEnd(keys, b[oct], start+count, level, oct)
	}
	return b
}

// nodeBuilder appends the recursive octree construction into a node
// arena. The serial Build, the Builder's parallel subtree tasks and the
// parallel build's stitched spine all run this one recursion, which is
// what makes their outputs bitwise-identical.
type nodeBuilder struct {
	nodes   []Node
	sys     *nbody.System
	keys    []morton.Key
	leafCap int
}

// newNode appends an empty cell with no children and returns its index.
func newNode(nodes []Node, box vec.Box, start, count, level int32) ([]Node, int32) {
	idx := int32(len(nodes))
	nodes = append(nodes, Node{
		Box:      box,
		Size:     box.MaxEdge(),
		Start:    start,
		Count:    count,
		Level:    int16(level),
		Children: [8]int32{NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild},
	})
	return nodes, idx
}

// build recursively constructs the subtree for sorted key range
// [start, start+count) with cell box, at the given level, returning the
// node index. Children are built from octant 7 down to 0, which lays
// the subtree out in walk order (see Tree).
func (nb *nodeBuilder) build(box vec.Box, start, count int32, level int32) int32 {
	var idx int32
	nb.nodes, idx = newNode(nb.nodes, box, start, count, level)

	if int(count) <= nb.leafCap || level >= morton.Bits-1 {
		nb.nodes[idx].Leaf = true
		nb.nodes[idx].Next = idx + 1
		finishLeafNode(nb.sys, &nb.nodes[idx])
		return idx
	}

	// Split [start, start+count) by octant at this level using binary
	// search: keys are sorted, and the octant bits at this level are a
	// prefix-ordered field within the node's range.
	b := octantBounds(nb.keys, start, count, level)
	for oct := 7; oct >= 0; oct-- {
		if lo, hi := b[oct], b[oct+1]; hi > lo {
			nb.nodes[idx].Children[oct] = nb.build(box.Child(oct), lo, hi-lo, level+1)
		}
	}
	nb.nodes[idx].Next = int32(len(nb.nodes))

	aggregateChildren(nb.nodes, idx, box)
	return idx
}

// aggregateChildren runs the centre-of-mass pass for internal node idx:
// mass and COM from its (already finished) children, in octant
// order. The parallel build's stitch phase uses the identical call for
// the spine, preserving floating-point summation order.
func aggregateChildren(nodes []Node, idx int32, box vec.Box) {
	var m float64
	var com vec.V3
	for _, c := range nodes[idx].Children {
		if c == NoChild {
			continue
		}
		cn := &nodes[c]
		m += cn.Mass
		com = com.MulAdd(cn.Mass, cn.COM)
	}
	n := &nodes[idx]
	n.Mass = m
	if m > 0 {
		n.COM = com.Scale(1 / m)
	} else {
		n.COM = box.Center()
	}
}

// finishLeafNode fills a leaf node's mass and COM from the
// system's particles in its range.
func finishLeafNode(sys *nbody.System, n *Node) {
	var m float64
	var com vec.V3
	for i := n.Start; i < n.Start+n.Count; i++ {
		mi := sys.Mass[i]
		m += mi
		com = com.MulAdd(mi, sys.Pos[i])
	}
	n.Mass = m
	if m > 0 {
		n.COM = com.Scale(1 / m)
	} else {
		n.COM = n.Box.Center()
	}
}

// Root returns the root node.
func (t *Tree) Root() *Node { return &t.Nodes[0] }

// NumNodes returns the total cell count.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// Refresh recomputes masses and centres of mass bottom-up from the
// current particle positions WITHOUT changing the cell topology. Block
// substeps with a small active set refresh instead of rebuilding:
// particles drift slightly out of their cells, an approximation bounded
// by the drift distance, while the O(N log N) sort+build is skipped.
//
// Refresh runs no recursion and allocates nothing: every constructor
// (nodeBuilder.build and the parallel build's byte-identical layout)
// lays nodes out in preorder, so a parent's index is
// always smaller than its children's and a single reverse-index sweep
// visits children before parents. Each node's aggregation reads only
// its (already refreshed) children in octant order — the identical
// floating-point fold as the build — so refresh results are bitwise
// independent of the sweep's visit order. Block-timestep runs refresh
// once per substep, which is what makes the zero-cost sweep matter.
func (t *Tree) Refresh() {
	for idx := int32(len(t.Nodes)) - 1; idx >= 0; idx-- {
		n := &t.Nodes[idx]
		if n.Leaf {
			finishLeafNode(t.Sys, n)
		} else {
			aggregateChildren(t.Nodes, idx, n.Box)
		}
	}
}

// Groups returns the index ranges of the particle groups used by
// Barnes' modified algorithm: the shallowest cells containing at most
// ncrit particles. Every particle belongs to exactly one group, and
// each group is a contiguous range in tree order.
//
// The result is cached on the tree: repeat calls with the same ncrit
// (block substeps that Refresh, which changes cell contents but not
// topology) return the cached slice without re-scanning the
// tree. The cache is invalidated by rebuilds and by a different ncrit.
// Callers must not retain the slice across a rebuild.
func (t *Tree) Groups(ncrit int) []Group {
	if ncrit < 1 {
		ncrit = 1
	}
	if t.groupsNcrit == ncrit {
		return t.groups
	}
	t.groups = t.groups[:0]
	// Iterative preorder: push children 7..0 so octant 0 pops first,
	// matching the recursive descent's group order.
	stack := append(t.groupStack[:0], 0)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.Nodes[idx]
		if int(n.Count) <= ncrit || n.Leaf {
			t.groups = append(t.groups, Group{Node: idx, Start: n.Start, Count: n.Count})
			continue
		}
		for oct := 7; oct >= 0; oct-- {
			if c := n.Children[oct]; c != NoChild {
				stack = append(stack, c)
			}
		}
	}
	t.groupStack = stack[:0]
	t.groupsNcrit = ncrit
	return t.groups
}

// Group is a particle group for the modified tree algorithm: the
// particles [Start, Start+Count) in tree order, contained in cell Node.
type Group struct {
	// Node is the index of the cell bounding this group.
	Node int32
	// Start, Count give the group's particle range in tree order.
	Start, Count int32
}

// Validate checks structural invariants of the tree: nodes are stored
// in walk order with correct Next indices, each internal node's
// children partition its range, masses add up, every particle lies in
// its leaf's box (allowing quantisation slack on faces).
func (t *Tree) Validate() error {
	var totalErr error
	var walk func(idx int32) (mass float64)
	walk = func(idx int32) float64 {
		n := &t.Nodes[idx]
		at := idx + 1
		for oct := 7; oct >= 0; oct-- {
			if c := n.Children[oct]; c != NoChild {
				if c != at {
					totalErr = fmt.Errorf("octree: node %d child %d stored at %d, walk order wants %d", idx, oct, c, at)
					return 0
				}
				at = t.Nodes[c].Next
			}
		}
		if n.Next != at {
			totalErr = fmt.Errorf("octree: node %d Next = %d, want %d", idx, n.Next, at)
		}
		if n.Leaf {
			var m float64
			for i := n.Start; i < n.Start+n.Count; i++ {
				m += t.Sys.Mass[i]
				// Morton quantisation can place a particle exactly on
				// a cell face; allow slack of one quantisation step.
				slack := n.Size * 1e-6
				grown := vec.Box{
					Min: n.Box.Min.Sub(vec.V3{X: slack, Y: slack, Z: slack}),
					Max: n.Box.Max.Add(vec.V3{X: slack, Y: slack, Z: slack}),
				}
				if !grown.ContainsClosed(t.Sys.Pos[i]) {
					totalErr = fmt.Errorf("octree: particle %d outside leaf box", i)
				}
			}
			return m
		}
		var m float64
		next := n.Start
		for _, c := range n.Children {
			if c == NoChild {
				continue
			}
			cn := &t.Nodes[c]
			if cn.Start != next {
				totalErr = fmt.Errorf("octree: node %d children do not tile its range", idx)
			}
			next = cn.Start + cn.Count
			m += walk(c)
		}
		if next != n.Start+n.Count {
			totalErr = fmt.Errorf("octree: node %d range not covered by children", idx)
		}
		if math.Abs(m-n.Mass) > 1e-9*(1+math.Abs(m)) {
			totalErr = fmt.Errorf("octree: node %d mass mismatch %v vs %v", idx, n.Mass, m)
		}
		return m
	}
	root := walk(0)
	if t.Nodes[0].Next != int32(len(t.Nodes)) {
		return fmt.Errorf("octree: root subtree ends at %d of %d nodes", t.Nodes[0].Next, len(t.Nodes))
	}
	if math.Abs(root-t.Sys.TotalMass()) > 1e-9*(1+root) {
		return fmt.Errorf("octree: root mass %v != system mass %v", root, t.Sys.TotalMass())
	}
	return totalErr
}
