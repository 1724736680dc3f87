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

// NoChild marks an absent child slot of the insertion tree.
const NoChild = int32(-1)

// LeafCap is the leaf capacity every production tree is built with:
// the maximum number of particles in a leaf.
const LeafCap = 8

// Node is one octree cell in 56 bytes: the fields Tree.Walk and the
// centre-of-mass passes read, and the cell's octant. Its children and
// box are not stored: walk order places the children (see Tree), and
// the box is the root cube's Box.Child descent along the octants.
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
	// Octant is the cell's octant in its parent (vec.Box.Child's
	// index); 0 for the root.
	Octant uint8
}

// Tree is a built Barnes-Hut octree over a particle system. The system
// is reordered into Morton order by Builder.Build; Tree keeps a
// reference to its arrays.
//
// Nodes are stored in walk order: preorder with children in descending
// octant order. A cell's subtree is the index range [i, Nodes[i].Next),
// its first child (if any) is i+1, and each further child starts at its
// previous sibling's Next; a leaf's Next is i+1. A tree walk is
// therefore one forward loop over Nodes that steps to i+1 to open a
// cell and jumps to Next to skip it. Particle ranges still run in
// ascending octant order, so a cell's children occupy its Morton range
// from the last stored to the first.
//
// Trees borrow their Builder's node arena: they stay valid until the
// Builder's next Build call.
type Tree struct {
	// Nodes holds all cells; Nodes[0] is the root.
	Nodes []Node
	// Sys is the particle system the tree indexes (in tree order).
	Sys *nbody.System

	// cube is the root cell's box, the start of every box descent.
	cube vec.Box

	// groups caches the most recent Groups(ncrit) result. The cache is
	// born invalid on every (re)build — groupsNcrit 0 matches no valid
	// request — and survives Refresh, which changes masses and centres
	// of mass but not the cell topology the group ranges come from.
	groups      []Group
	groupsNcrit int
	groupStack  []cellBox
}

// cellBox is a node index with the cell's box, an entry of the Groups
// descent's stack.
type cellBox struct {
	idx int32
	box vec.Box
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

// nodeBuilder appends the recursive octree construction into the
// Builder's node arena.
type nodeBuilder struct {
	nodes   []Node
	sys     *nbody.System
	keys    []morton.Key
	leafCap int
}

// newNode appends an empty cell and returns its index. Its COM starts
// at the box centre, which is where a cell without mass keeps it.
func newNode(nodes []Node, box vec.Box, start, count int32, oct int) ([]Node, int32) {
	idx := int32(len(nodes))
	nodes = append(nodes, Node{
		COM:    box.Center(),
		Size:   box.MaxEdge(),
		Start:  start,
		Count:  count,
		Octant: uint8(oct),
	})
	return nodes, idx
}

// build recursively constructs the subtree for sorted key range
// [start, start+count) with cell box, at the given level and in octant
// oct of its parent. Children are built from octant 7 down to 0, which
// lays the subtree out in walk order (see Tree).
func (nb *nodeBuilder) build(box vec.Box, start, count, level int32, oct int) {
	var idx int32
	nb.nodes, idx = newNode(nb.nodes, box, start, count, oct)

	if int(count) <= nb.leafCap || level >= morton.Bits-1 {
		nb.nodes[idx].Leaf = true
		nb.nodes[idx].Next = idx + 1
		finishLeafNode(nb.sys, &nb.nodes[idx])
		return
	}

	// Split [start, start+count) by octant at this level using binary
	// search: keys are sorted, and the octant bits at this level are a
	// prefix-ordered field within the node's range.
	b := octantBounds(nb.keys, start, count, level)
	for c := 7; c >= 0; c-- {
		if lo, hi := b[c], b[c+1]; hi > lo {
			nb.build(box.Child(c), lo, hi-lo, level+1, c)
		}
	}
	nb.nodes[idx].Next = int32(len(nb.nodes))

	aggregateChildren(nb.nodes, idx)
}

// aggregateChildren runs the centre-of-mass pass for internal node idx:
// mass and COM from its (already finished) children, in ascending
// octant order — reverse storage order. The build and Refresh both make
// this one call, so they sum in the same floating-point order. A cell
// without mass keeps the COM it was built with.
func aggregateChildren(nodes []Node, idx int32) {
	var kids [8]int32
	k := 0
	for c := idx + 1; c < nodes[idx].Next; c = nodes[c].Next {
		kids[k] = c
		k++
	}
	var m float64
	var com vec.V3
	for k--; k >= 0; k-- {
		cn := &nodes[kids[k]]
		m += cn.Mass
		com = com.MulAdd(cn.Mass, cn.COM)
	}
	n := &nodes[idx]
	n.Mass = m
	if m > 0 {
		n.COM = com.Scale(1 / m)
	}
}

// finishLeafNode fills a leaf node's mass and COM from the system's
// particles in its range; a leaf without mass keeps its COM.
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
// Refresh runs no recursion and allocates nothing: nodeBuilder.build
// lays nodes out in preorder, so a parent's index is always smaller
// than its children's and a single reverse-index sweep visits children
// before parents. Each node's aggregation reads only
// its (already refreshed) children in octant order — the identical
// floating-point fold as the build — so refresh results are bitwise
// independent of the sweep's visit order. Block-timestep runs refresh
// once per substep, which is what makes the zero-cost sweep matter.
func (t *Tree) Refresh() {
	for idx := int32(len(t.Nodes)) - 1; idx >= 0; idx-- {
		if n := &t.Nodes[idx]; n.Leaf {
			finishLeafNode(t.Sys, n)
		} else {
			aggregateChildren(t.Nodes, idx)
		}
	}
}

// Groups returns the particle groups used by Barnes' modified
// algorithm: the shallowest cells containing at most ncrit particles.
// Every particle belongs to exactly one group, and each group is a
// contiguous range in tree order. Each group's box is rebuilt by the
// builder's own Box.Child descent from the root cube, so it is bit for
// bit the box the build gave the cell.
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
	// Iterative preorder: children are pushed in storage order, octant
	// 7 first, so octant 0 pops first, matching the recursive descent's
	// group order.
	stack := append(t.groupStack[:0], cellBox{0, t.cube})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.Nodes[top.idx]
		if int(n.Count) <= ncrit || n.Leaf {
			t.groups = append(t.groups, Group{Node: top.idx, Start: n.Start, Count: n.Count, Box: top.box})
			continue
		}
		for c := top.idx + 1; c < n.Next; c = t.Nodes[c].Next {
			stack = append(stack, cellBox{c, top.box.Child(int(t.Nodes[c].Octant))})
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
	// Box is the cell's box, the sink of the group's walk.
	Box vec.Box
}

// Validate checks structural invariants of the tree: nodes are stored
// in walk order with correct Next indices and strictly descending
// child octants, each internal node's children partition its range,
// sizes match the box descent, masses add up, and every particle lies
// in its leaf's descent box (allowing quantisation slack on faces).
func (t *Tree) Validate() error {
	var totalErr error
	var walk func(idx int32, box vec.Box) (mass float64)
	walk = func(idx int32, box vec.Box) float64 {
		n := &t.Nodes[idx]
		if n.Size != box.MaxEdge() {
			totalErr = fmt.Errorf("octree: node %d size %v, its descent box has edge %v", idx, n.Size, box.MaxEdge())
		}
		if n.Leaf {
			if n.Next != idx+1 {
				totalErr = fmt.Errorf("octree: leaf %d Next = %d, want %d", idx, n.Next, idx+1)
			}
			var m float64
			// Morton quantisation can place a particle exactly on a
			// cell face; allow slack of one quantisation step.
			slack := n.Size * 1e-6
			grown := vec.Box{
				Min: box.Min.Sub(vec.V3{X: slack, Y: slack, Z: slack}),
				Max: box.Max.Add(vec.V3{X: slack, Y: slack, Z: slack}),
			}
			for i := n.Start; i < n.Start+n.Count; i++ {
				m += t.Sys.Mass[i]
				if !grown.ContainsClosed(t.Sys.Pos[i]) {
					totalErr = fmt.Errorf("octree: particle %d outside leaf box", i)
				}
			}
			return m
		}
		if n.Next <= idx+1 || int(n.Next) > len(t.Nodes) {
			totalErr = fmt.Errorf("octree: internal node %d Next = %d of %d nodes", idx, n.Next, len(t.Nodes))
			return 0
		}
		// Children in storage order, checking that each starts where
		// its previous sibling's subtree ends and that the last ends
		// at the parent's Next.
		var kids [8]int32
		k, c := 0, idx+1
		for ; c < n.Next && k < 8; c = t.Nodes[c].Next {
			if c <= idx || (k > 0 && t.Nodes[c].Octant >= t.Nodes[kids[k-1]].Octant) || t.Nodes[c].Octant > 7 {
				totalErr = fmt.Errorf("octree: node %d child %d at %d is out of walk order", idx, k, c)
				return 0
			}
			kids[k] = c
			k++
		}
		if c != n.Next {
			totalErr = fmt.Errorf("octree: node %d Next = %d, its children end at %d", idx, n.Next, c)
			return 0
		}
		var m float64
		next := n.Start
		for k--; k >= 0; k-- {
			cn := &t.Nodes[kids[k]]
			if cn.Start != next {
				totalErr = fmt.Errorf("octree: node %d children do not tile its range", idx)
			}
			next = cn.Start + cn.Count
			m += walk(kids[k], box.Child(int(cn.Octant)))
		}
		if next != n.Start+n.Count {
			totalErr = fmt.Errorf("octree: node %d range not covered by children", idx)
		}
		if math.Abs(m-n.Mass) > 1e-9*(1+math.Abs(m)) {
			totalErr = fmt.Errorf("octree: node %d mass mismatch %v vs %v", idx, n.Mass, m)
		}
		return m
	}
	root := walk(0, t.cube)
	if t.Nodes[0].Next != int32(len(t.Nodes)) {
		return fmt.Errorf("octree: root subtree ends at %d of %d nodes", t.Nodes[0].Next, len(t.Nodes))
	}
	if math.Abs(root-t.Sys.TotalMass()) > 1e-9*(1+root) {
		return fmt.Errorf("octree: root mass %v != system mass %v", root, t.Sys.TotalMass())
	}
	return totalErr
}
