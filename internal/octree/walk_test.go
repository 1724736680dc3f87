package octree

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/hostk"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

// refWalk is the reference tree walk: a recursion over the children
// replayBuild found, from octant 7 down to 0, one scalar MAC per node,
// OpenCriterion.Accept on vec.Box.Dist2 for a group's box or on
// vec.V3.Dist2 for field particle self. It knows nothing of Next.
type refWalk struct {
	tree    *Tree
	cells   []cell
	mac     OpenCriterion
	box     vec.Box
	self    int32
	j       hostk.JList
	listed  []int32
	visited int64
}

func (r *refWalk) visit(idx int32) {
	n := &r.tree.Nodes[idx]
	r.visited++
	d2 := r.box.Dist2(n.COM)
	if r.self >= 0 {
		d2 = r.tree.Sys.Pos[r.self].Dist2(n.COM)
	}
	if r.mac.Accept(n, d2) {
		r.listed = append(r.listed, idx)
		r.j.Append(n.COM.X, n.COM.Y, n.COM.Z, n.Mass)
		return
	}
	if n.Leaf {
		for k := n.Start; k < n.Start+n.Count; k++ {
			if k != r.self {
				p := r.tree.Sys.Pos[k]
				r.j.Append(p.X, p.Y, p.Z, r.tree.Sys.Mass[k])
			}
		}
		return
	}
	for oct := 7; oct >= 0; oct-- {
		if c := r.cells[idx].kids[oct]; c != NoChild {
			r.visit(c)
		}
	}
}

// reference runs the reference walk for a group's box (self < 0) or
// for field particle self, and pads its list as Walk does.
func reference(tree *Tree, cells []cell, mac OpenCriterion, box vec.Box, self int32) *refWalk {
	r := &refWalk{tree: tree, cells: cells, mac: mac, box: box, self: self}
	r.visit(0)
	r.j.Pad()
	return r
}

// checkWalk compares Walk, with a list and count-only, against the
// reference: lanes bit for bit (padding included), N, cells, visited.
func checkWalk(t *testing.T, tree *Tree, cells []cell, mac OpenCriterion, box vec.Box, self int32, j *hostk.JList) {
	t.Helper()
	want := reference(tree, cells, mac, box, self)
	nj, ncells, visited := tree.Walk(box, mac, self, j)
	nc, cc, vc := tree.Walk(box, mac, self, nil)
	what := fmt.Sprintf("box %v self %d", box, self)
	if nj != want.j.N || j.N != want.j.N || nc != want.j.N {
		t.Fatalf("%s: entries %d (list N %d, count-only %d), reference %d", what, nj, j.N, nc, want.j.N)
	}
	if ncells != len(want.listed) || cc != ncells || visited != want.visited || vc != visited {
		t.Fatalf("%s: cells %d/%d visited %d/%d (list/count-only), reference %d, %d",
			what, ncells, cc, visited, vc, len(want.listed), want.visited)
	}
	if j.Len() != want.j.Len() {
		t.Fatalf("%s: %d lanes, reference %d", what, j.Len(), want.j.Len())
	}
	for k := 0; k < j.Len(); k++ {
		got := [4]float64{j.X[k], j.Y[k], j.Z[k], j.M[k]}
		ref := [4]float64{want.j.X[k], want.j.Y[k], want.j.Z[k], want.j.M[k]}
		for c := range got {
			if math.Float64bits(got[c]) != math.Float64bits(ref[c]) {
				t.Fatalf("%s: lane %d = %v, reference %v", what, k, got, ref)
			}
		}
	}
}

// checkTree checks every group, its sink taken from Group.Box, at each
// ncrit and, when particles is set, every field particle. cells is
// replayBuild's reference structure of the tree.
func checkTree(t *testing.T, tree *Tree, cells []cell, theta float64, ncrits []int, particles bool) {
	t.Helper()
	mac := OpenCriterion{Theta: theta}
	var j hostk.JList
	for _, ncrit := range ncrits {
		for _, g := range tree.Groups(ncrit) {
			checkWalk(t, tree, cells, mac, g.Box, -1, &j)
		}
	}
	if particles {
		for i, p := range tree.Sys.Pos {
			checkWalk(t, tree, cells, mac, vec.Box{Min: p, Max: p}, int32(i), &j)
		}
	}
}

// drift moves every particle by a small random step, as a block substep
// does between rebuilds, and refreshes the tree's masses and centres of
// mass over the unchanged topology.
func drift(tree *Tree, seed uint64) {
	r := rng.New(seed)
	h := tree.Root().Size * 1e-3
	for i := range tree.Sys.Pos {
		tree.Sys.Pos[i] = tree.Sys.Pos[i].Add(vec.V3{X: r.Normal() * h, Y: r.Normal() * h, Z: r.Normal() * h})
	}
	tree.Refresh()
}

// TestWalkMatchesReference pins the stackless walk over the walk-order
// layout to the per-node reference walk, bit for bit, on three systems,
// four opening angles and three group sizes, for a fresh build and for
// a drifted Refresh of it. Every particle's walk (the original
// algorithm) is checked too.
func TestWalkMatchesReference(t *testing.T) {
	ps, err := cosmo.NewPowerSpectrum(cosmo.SCDM(), 1, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	sphere, err := cosmo.GenerateSphere(cosmo.ICParams{
		Power: ps, GridN: 8, BoxMpc: 100, RadiusMpc: 50, ZInit: 24, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name string
		s    *nbody.System
	}{
		{"plummer", nbody.Plummer(700, 1, 1, 1, rng.New(5))},
		{"uniform", nbody.UniformSphere(700, 1, 1, rng.New(6))},
		{"cosmo", sphere.System},
	}
	for _, sys := range systems {
		for _, theta := range []float64{0, 0.3, 0.75, 1.2} {
			t.Run(fmt.Sprintf("%s/theta=%g", sys.name, theta), func(t *testing.T) {
				tree, err := NewBuilder(BuilderOptions{}).Build(sys.s.Clone())
				if err != nil {
					t.Fatal(err)
				}
				cells := replayBuild(tree, LeafCap)
				checkTree(t, tree, cells, theta, []int{1, 16, 500}, true)
				drift(tree, 7)
				checkTree(t, tree, cells, theta, []int{1, 16, 500}, true)
			})
		}
	}
}

// FuzzWalkMatchesReference runs the reference comparison on random
// Plummer systems of up to 512 particles with random θ, n_crit, leaf
// capacity and drift.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(75), uint16(16), uint8(8), false)
	f.Add(uint64(2), uint16(1), uint8(0), uint16(1), uint8(1), true)
	f.Add(uint64(3), uint16(512), uint8(120), uint16(500), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, thetaRaw uint8, ncritRaw uint16, leafRaw uint8, drifted bool) {
		n := 1 + int(nRaw)%512
		theta := float64(thetaRaw) / 100
		ncrit := 1 + int(ncritRaw)%600
		leafCap := 1 + int(leafRaw)%16
		tree, err := NewBuilder(BuilderOptions{LeafCap: leafCap}).Build(nbody.Plummer(n, 1, 1, 1, rng.New(seed)))
		if err != nil {
			t.Fatal(err)
		}
		cells := replayBuild(tree, leafCap)
		if drifted {
			drift(tree, seed)
		}
		checkTree(t, tree, cells, theta, []int{ncrit}, true)
	})
}

// BenchmarkWalk walks every n_crit = 16 group of a Plummer sphere of
// 16384 particles at θ = 0.75, the host_plummer64k configuration at a
// quarter of its N.
func BenchmarkWalk(b *testing.B) {
	tree, err := NewBuilder(BuilderOptions{}).Build(nbody.Plummer(16384, 1, 1, 1, rng.New(3)))
	if err != nil {
		b.Fatal(err)
	}
	groups := tree.Groups(16)
	mac := OpenCriterion{Theta: 0.75}
	var j hostk.JList
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, g := range groups {
			tree.Walk(g.Box, mac, -1, &j)
		}
	}
}
