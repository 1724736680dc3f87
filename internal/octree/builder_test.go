package octree

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

// clusteredSystem builds a deterministic clustered test system: a few
// Gaussian blobs plus a uniform background, so trees get both deep and
// shallow regions.
func clusteredSystem(seed uint64, n int) *nbody.System {
	r := rng.New(seed)
	s := nbody.New(n)
	nblobs := 1 + r.Intn(4)
	centers := make([]vec.V3, nblobs)
	for b := range centers {
		centers[b] = vec.V3{
			X: r.Uniform(-1, 1),
			Y: r.Uniform(-1, 1),
			Z: r.Uniform(-1, 1),
		}
	}
	for i := 0; i < n; i++ {
		if r.Float64() < 0.8 {
			c := centers[r.Intn(nblobs)]
			s.Pos[i] = vec.V3{
				X: c.X + r.Normal()*0.05,
				Y: c.Y + r.Normal()*0.05,
				Z: c.Z + r.Normal()*0.05,
			}
		} else {
			s.Pos[i] = vec.V3{
				X: r.Uniform(-2, 2),
				Y: r.Uniform(-2, 2),
				Z: r.Uniform(-2, 2),
			}
		}
		s.Mass[i] = 0.5 + r.Float64()
	}
	return s
}

// cell is one cell of the build recursion replayed over sorted keys.
type cell struct {
	box          vec.Box
	start, count int32
	level        int32
	// kids holds the cell indices of the children by octant; NoChild
	// marks empty octants.
	kids [8]int32
}

// replayBuild replays the build recursion over the Morton keys of the
// tree's particles, finding each octant's run by a linear scan: the
// cells in preorder with children from octant 7 down to 0, each with
// the box Box.Child gave it. It reads nothing of the tree but its
// system, so it is the reference for the stored layout, the group boxes
// and the walk. Call it before the particles drift.
func replayBuild(tree *Tree, leafCap int) []cell {
	cube := rootCube(tree.Sys)
	keys := morton.KeysInto(nil, tree.Sys.Pos, cube)
	var cells []cell
	var rec func(box vec.Box, start, count, level int32) int32
	rec = func(box vec.Box, start, count, level int32) int32 {
		ci := int32(len(cells))
		cells = append(cells, cell{box: box, start: start, count: count, level: level,
			kids: [8]int32{NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild}})
		if int(count) <= leafCap || level >= morton.Bits-1 {
			return ci
		}
		for oct := 7; oct >= 0; oct-- {
			lo := start
			for lo < start+count && keys[lo].OctantAtLevel(int(level)) < oct {
				lo++
			}
			hi := lo
			for hi < start+count && keys[hi].OctantAtLevel(int(level)) == oct {
				hi++
			}
			if hi > lo {
				kid := rec(box.Child(oct), lo, hi-lo, level+1) // rec may grow cells
				cells[ci].kids[oct] = kid
			}
		}
		return ci
	}
	rec(cube, 0, int32(len(keys)), 0)
	return cells
}

// assertTreesBitwiseEqual fails unless the two trees have identical
// node slices (compared with ==, so every float is bitwise-equal and
// every Next index the same), identical particle orders and identical
// group lists, and the second tree validates (walk order and Next
// included).
func assertTreesBitwiseEqual(t *testing.T, want, got *Tree, ncrit int) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("node count: want %d, got %d", len(want.Nodes), len(got.Nodes))
	}
	for i := range want.Nodes {
		if want.Nodes[i] != got.Nodes[i] {
			t.Fatalf("node %d differs:\nwant: %+v\ngot:  %+v", i, want.Nodes[i], got.Nodes[i])
		}
	}
	for i := range want.Sys.Pos {
		if want.Sys.Pos[i] != got.Sys.Pos[i] || want.Sys.ID[i] != got.Sys.ID[i] {
			t.Fatalf("particle order differs at %d: (%v, id %d) vs (%v, id %d)",
				i, want.Sys.Pos[i], want.Sys.ID[i], got.Sys.Pos[i], got.Sys.ID[i])
		}
	}
	gw, gg := want.Groups(ncrit), got.Groups(ncrit)
	if len(gw) != len(gg) {
		t.Fatalf("group count: want %d, got %d", len(gw), len(gg))
	}
	for i := range gw {
		if gw[i] != gg[i] {
			t.Fatalf("group %d differs: %+v vs %+v", i, gw[i], gg[i])
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderReuseMatchesFresh drives one Builder across several
// perturbed "steps" and checks each reused-arena build against a fresh
// Builder's build of the same snapshot.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	sys := clusteredSystem(42, 1500)
	jig := rng.New(99)
	var prev *Tree
	for step := 0; step < 5; step++ {
		for i := range sys.Pos {
			sys.Pos[i].X += jig.Normal() * 0.01
			sys.Pos[i].Y += jig.Normal() * 0.01
			sys.Pos[i].Z += jig.Normal() * 0.01
		}
		ref := sys.Clone()
		reused, err := b.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		if reused == prev {
			t.Fatal("Builder returned the same *Tree header on a rebuild")
		}
		prev = reused
		fresh, err := NewBuilder(BuilderOptions{}).Build(ref)
		if err != nil {
			t.Fatal(err)
		}
		assertTreesBitwiseEqual(t, fresh, reused, 64)
	}
}

// TestGroupsCached pins the Groups cache contract: repeat calls with
// the same ncrit return the identical cached slice, the cache survives
// Refresh (topology unchanged), a different ncrit recomputes, and a
// rebuild invalidates.
func TestGroupsCached(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	sys := clusteredSystem(7, 800)
	tree, err := b.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	g1 := tree.Groups(32)
	g2 := tree.Groups(32)
	if len(g1) == 0 || &g1[0] != &g2[0] {
		t.Fatal("repeat Groups(32) did not return the cached slice")
	}

	tree.Refresh()
	g3 := tree.Groups(32)
	if &g1[0] != &g3[0] {
		t.Fatal("Groups cache did not survive Refresh")
	}

	g64 := tree.Groups(64)
	if len(g64) > len(g1) {
		t.Fatalf("larger ncrit produced more groups: %d > %d", len(g64), len(g1))
	}
	back := tree.Groups(32)
	if len(back) != len(g1) {
		t.Fatalf("ncrit switch broke recompute: %d != %d", len(back), len(g1))
	}

	// Rebuild: the new tree must not serve the old tree's group list.
	for i := range sys.Pos {
		sys.Pos[i].X += 0.5
	}
	tree2, err := b.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBuilder(BuilderOptions{}).Build(sys.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, want := tree2.Groups(32), fresh.Groups(32)
	if len(got) != len(want) {
		t.Fatalf("post-rebuild groups stale: %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-rebuild group %d stale: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestGroupsMatchRecursiveReference checks the iterative cached Groups
// against an independent recursive implementation of the definition.
func TestGroupsMatchRecursiveReference(t *testing.T) {
	sys := clusteredSystem(11, 1200)
	tree, err := NewBuilder(BuilderOptions{}).Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	cells := replayBuild(tree, LeafCap)
	for _, ncrit := range []int{1, 8, 33, 200, 5000} {
		var want []Group
		var walk func(idx int32)
		walk = func(idx int32) {
			c := &cells[idx]
			if int(c.count) <= ncrit || tree.Nodes[idx].Leaf {
				want = append(want, Group{Node: idx, Start: c.start, Count: c.count, Box: c.box})
				return
			}
			for _, k := range c.kids {
				if k != NoChild {
					walk(k)
				}
			}
		}
		walk(0)
		got := tree.Groups(ncrit)
		if len(got) != len(want) {
			t.Fatalf("ncrit=%d: %d groups, want %d", ncrit, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ncrit=%d group %d: %+v != %+v", ncrit, i, got[i], want[i])
			}
		}
	}
}

// TestGroupBoxesMatchBuild checks each node's range and size and each
// Group.Box, bit for bit, against the cell the build recursion made
// (replayed over the sorted keys), that the tree validates, and that
// the groups tile [0, N) in Morton order: from 1 to 5000 particles,
// leaf capacities 1 to 16, fresh trees and trees after Refresh, and
// three group sizes.
func TestGroupBoxesMatchBuild(t *testing.T) {
	cases := []struct {
		seed    uint64
		n       int
		leafCap int
	}{
		{1, 3000, 8}, {2, 3000, 8}, {3, 3000, 8},
		{1, 1, 8}, {2, 7, 8}, {3, 64, 1}, {4, 500, 8},
		{5, 2000, 8}, {6, 2000, 2}, {7, 5000, 16}, {8, 3000, 8},
	}
	for _, tc := range cases {
		tree, err := NewBuilder(BuilderOptions{LeafCap: tc.leafCap}).Build(clusteredSystem(tc.seed, tc.n))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		cells := replayBuild(tree, tc.leafCap)
		if len(cells) != len(tree.Nodes) {
			t.Fatalf("%+v: %d nodes, the build recursion made %d cells", tc, len(tree.Nodes), len(cells))
		}
		for i, c := range cells {
			if n := &tree.Nodes[i]; n.Start != c.start || n.Count != c.count || n.Size != c.box.MaxEdge() {
				t.Fatalf("%+v: node %d holds [%d, +%d) size %v, the recursion's cell [%d, +%d) size %v",
					tc, i, n.Start, n.Count, n.Size, c.start, c.count, c.box.MaxEdge())
			}
		}
		for _, refreshed := range []bool{false, true} {
			if refreshed {
				drift(tree, tc.seed)
			}
			for _, ncrit := range []int{1, 16, 500} {
				next := int32(0)
				for gi, g := range tree.Groups(ncrit) {
					if g.Box != cells[g.Node].box {
						t.Fatalf("%+v refreshed=%v ncrit=%d: group %d (node %d) box %v, the build gave %v",
							tc, refreshed, ncrit, gi, g.Node, g.Box, cells[g.Node].box)
					}
					if g.Start != next {
						t.Fatalf("%+v refreshed=%v ncrit=%d: group %d starts at %d, want %d",
							tc, refreshed, ncrit, gi, g.Start, next)
					}
					next = g.Start + g.Count
				}
				if int(next) != tree.Sys.N() {
					t.Fatalf("%+v refreshed=%v ncrit=%d: groups end at %d of %d",
						tc, refreshed, ncrit, next, tree.Sys.N())
				}
			}
		}
	}
}

// TestCheckNRefusesInt32Overflow: the build indexes particles with
// int32 orders and node and group ranges, so an N of 2³¹ or more is
// refused with an error naming N and the limit instead of wrapping.
func TestCheckNRefusesInt32Overflow(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want string // "" accepts
	}{
		{0, "empty system"},
		{1, ""},
		{65536, ""},
		{math.MaxInt32, ""},
		{math.MaxInt32 + 1, "N = 2147483648 exceeds the limit of 2147483647"},
		{1 << 40, "N = 1099511627776 exceeds the limit of 2147483647"},
	} {
		if strconv.IntSize == 32 && c.n > math.MaxInt32 {
			continue // not an int here
		}
		err := checkN(int(c.n))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("N = %d refused: %v", c.n, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("N = %d: got %v, want an error containing %q", c.n, err, c.want)
		}
	}
}

// TestBuildSteadyStateAllocs pins the arena property: after warmup, a
// Builder's Build performs only the constant-size Tree-header
// allocation, independent of N.
func TestBuildSteadyStateAllocs(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	sys := clusteredSystem(13, 4000)
	for i := 0; i < 3; i++ {
		if _, err := b.Build(sys); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Build(sys); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation for the fresh *Tree header; a little slack for the
	// runtime.
	if allocs > 2 {
		t.Fatalf("steady-state Build allocates %.1f objects/run, want <= 2", allocs)
	}
}

// TestOctantEndMatchesReference checks the hand-rolled binary search
// against a linear scan on sorted key runs.
func TestOctantEndMatchesReference(t *testing.T) {
	sys := clusteredSystem(17, 600)
	tree, err := NewBuilder(BuilderOptions{}).Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	cube := rootCube(sys)
	// keys are in tree (sorted) order after Build reordered sys; octant
	// order at a node's level is monotonic only inside the node's range
	// (where all keys share the prefix), so the check walks real nodes.
	keys := morton.KeysInto(nil, sys.Pos, cube)
	cells := replayBuild(tree, LeafCap)
	for ni := range tree.Nodes {
		n := &tree.Nodes[ni]
		if n.Leaf {
			continue
		}
		level := cells[ni].level
		lo := n.Start
		for oct := 0; oct < 8; oct++ {
			hi := octantEnd(keys, lo, n.Start+n.Count, level, oct)
			want := lo
			for want < n.Start+n.Count && keys[want].OctantAtLevel(int(level)) <= oct {
				want++
			}
			if hi != want {
				t.Fatalf("node=%d level=%d oct=%d lo=%d: got %d, want %d", ni, level, oct, lo, hi, want)
			}
			lo = hi
		}
	}
}
