package octree

import (
	"fmt"

	"repro/internal/nbody"
	"repro/internal/vec"
)

// NoChild marks an absent child slot of the insertion tree.
const NoChild = int32(-1)

// BuildInsertion builds an octree by naive one-particle-at-a-time
// insertion, the textbook Barnes & Hut (1986) construction. It produces
// the same cell decomposition as Builder.Build for the same leaf
// capacity but does not reorder the system, so leaves index particles
// through the Perm slice instead of contiguous ranges.
//
// It is the independent reference the cross-validation tests hold
// Builder.Build to.
type InsertionTree struct {
	Nodes   []inode
	Sys     *nbody.System
	LeafCap int
}

type inode struct {
	box      vec.Box
	com      vec.V3
	mass     float64
	children [8]int32
	// particles holds original particle indices for leaves.
	particles []int32
	leaf      bool
}

// BuildInsertion constructs the reference tree.
func BuildInsertion(s *nbody.System, leafCap int) (*InsertionTree, error) {
	if s.N() == 0 {
		return nil, fmt.Errorf("octree: empty system")
	}
	if leafCap <= 0 {
		leafCap = LeafCap
	}
	cube := s.Bounds().Cube()
	if cube.MaxEdge() == 0 {
		cube = vec.NewBox(cube.Min.Sub(vec.V3{X: 0.5, Y: 0.5, Z: 0.5}),
			cube.Min.Add(vec.V3{X: 0.5, Y: 0.5, Z: 0.5}))
	}
	// Grow the cube fractionally so points on the max faces stay inside
	// the half-open root.
	eps := cube.MaxEdge() * 1e-12
	cube.Max = cube.Max.Add(vec.V3{X: eps, Y: eps, Z: eps})

	t := &InsertionTree{Sys: s, LeafCap: leafCap}
	t.Nodes = append(t.Nodes, inode{box: cube, leaf: true})
	for i := range t.Nodes[0].children {
		t.Nodes[0].children[i] = NoChild
	}
	for i := 0; i < s.N(); i++ {
		t.insert(0, int32(i), 0)
	}
	t.summarize(0)
	return t, nil
}

const maxInsertionDepth = 64

func (t *InsertionTree) insert(idx, pi int32, depth int) {
	n := &t.Nodes[idx]
	if n.leaf {
		n.particles = append(n.particles, pi)
		if len(n.particles) <= t.LeafCap || depth >= maxInsertionDepth {
			return
		}
		// Split: push particles down.
		ps := n.particles
		n.particles = nil
		n.leaf = false
		for _, p := range ps {
			t.insertChild(idx, p, depth)
		}
		return
	}
	t.insertChild(idx, pi, depth)
}

func (t *InsertionTree) insertChild(idx, pi int32, depth int) {
	oct := t.Nodes[idx].box.Octant(t.Sys.Pos[pi])
	child := t.Nodes[idx].children[oct]
	if child == NoChild {
		child = int32(len(t.Nodes))
		childBox := t.Nodes[idx].box.Child(oct)
		t.Nodes = append(t.Nodes, inode{box: childBox, leaf: true})
		for i := range t.Nodes[child].children {
			t.Nodes[child].children[i] = NoChild
		}
		t.Nodes[idx].children[oct] = child
	}
	t.insert(child, pi, depth+1)
}

func (t *InsertionTree) summarize(idx int32) (mass float64, com vec.V3) {
	n := &t.Nodes[idx]
	if n.leaf {
		for _, p := range n.particles {
			m := t.Sys.Mass[p]
			n.mass += m
			n.com = n.com.MulAdd(m, t.Sys.Pos[p])
		}
		if n.mass > 0 {
			n.com = n.com.Scale(1 / n.mass)
		} else {
			n.com = n.box.Center()
		}
		return n.mass, n.com
	}
	var m float64
	var c vec.V3
	for _, ch := range n.children {
		if ch == NoChild {
			continue
		}
		cm, cc := t.summarize(ch)
		m += cm
		c = c.MulAdd(cm, cc)
	}
	n.mass = m
	if m > 0 {
		n.com = c.Scale(1 / m)
	} else {
		n.com = n.box.Center()
	}
	return n.mass, n.com
}

// RootMass returns the total mass at the root (for cross-checks).
func (t *InsertionTree) RootMass() float64 { return t.Nodes[0].mass }

// RootCOM returns the root centre of mass.
func (t *InsertionTree) RootCOM() vec.V3 { return t.Nodes[0].com }

// CountLeaves returns the number of leaf cells.
func (t *InsertionTree) CountLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.Nodes[i].leaf {
			c++
		}
	}
	return c
}
