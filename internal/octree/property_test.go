package octree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// leafSizesMorton returns the sorted leaf particle counts of a Morton
// tree.
func leafSizesMorton(tr *Tree) []int {
	var sizes []int
	for i := range tr.Nodes {
		if tr.Nodes[i].Leaf {
			sizes = append(sizes, int(tr.Nodes[i].Count))
		}
	}
	sort.Ints(sizes)
	return sizes
}

// leafSizesInsertion returns the sorted leaf particle counts of the
// reference insertion tree.
func leafSizesInsertion(tr *InsertionTree) []int {
	var sizes []int
	for i := range tr.Nodes {
		if tr.Nodes[i].leaf {
			sizes = append(sizes, len(tr.Nodes[i].particles))
		}
	}
	sort.Ints(sizes)
	return sizes
}

// checkBuildAgreement cross-validates the production Morton build
// against the textbook insertion build on one system: same total mass,
// same root centre of mass, and the same multiset of leaf particle
// counts (both construct the same spatial decomposition).
func checkBuildAgreement(t *testing.T, n int, seed uint64, leafCap int) {
	t.Helper()
	s := randomSystem(n, seed)
	ref, err := BuildInsertion(s.Clone(), leafCap)
	if err != nil {
		t.Fatalf("insertion build: %v", err)
	}
	tr, err := NewBuilder(BuilderOptions{LeafCap: leafCap}).Build(s)
	if err != nil {
		t.Fatalf("morton build: %v", err)
	}

	if d := math.Abs(ref.RootMass() - tr.Root().Mass); d > 1e-9*math.Abs(ref.RootMass()) {
		t.Errorf("n=%d seed=%d cap=%d: root mass insertion %v vs morton %v",
			n, seed, leafCap, ref.RootMass(), tr.Root().Mass)
	}
	if d := ref.RootCOM().Sub(tr.Root().COM).Norm(); d > 1e-9 {
		t.Errorf("n=%d seed=%d cap=%d: root COM differs by %v", n, seed, leafCap, d)
	}

	a, b := leafSizesInsertion(ref), leafSizesMorton(tr)
	if len(a) != len(b) {
		t.Fatalf("n=%d seed=%d cap=%d: leaf count insertion %d vs morton %d",
			n, seed, leafCap, len(a), len(b))
	}
	total := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("n=%d seed=%d cap=%d: leaf size multiset differs at %d: %d vs %d",
				n, seed, leafCap, i, a[i], b[i])
		}
		total += a[i]
	}
	if total != n {
		t.Errorf("n=%d seed=%d cap=%d: leaves hold %d particles", n, seed, leafCap, total)
	}
}

func TestBuildAgreesWithInsertion(t *testing.T) {
	cases := []struct {
		n       int
		seed    uint64
		leafCap int
	}{
		{1, 1, 8},
		{2, 2, 1},
		{7, 3, 2},
		{64, 4, 8},
		{100, 5, 1},
		{256, 6, 4},
		{512, 7, 16},
		{1000, 8, 8},
		{2048, 9, 2},
	}
	for _, tc := range cases {
		checkBuildAgreement(t, tc.n, tc.seed, tc.leafCap)
	}
}

func TestBuildAgreesWithInsertionRandomized(t *testing.T) {
	// Property sweep over randomized shapes: size, seed and leaf
	// capacity all drawn from a deterministic stream.
	r := rng.New(42)
	for trial := 0; trial < 25; trial++ {
		n := 1 + int(r.Uint64()%700)
		seed := r.Uint64()
		leafCap := 1 + int(r.Uint64()%16)
		checkBuildAgreement(t, n, seed, leafCap)
	}
}

// FuzzBuildAgreement fuzzes the cross-validation: any (n, seed, cap)
// triple must yield agreeing trees.
func FuzzBuildAgreement(f *testing.F) {
	f.Add(uint16(64), uint64(1), uint8(8))
	f.Add(uint16(1), uint64(2), uint8(1))
	f.Add(uint16(300), uint64(99), uint8(3))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, leafCap uint8) {
		nn := 1 + int(n)%512
		cap := 1 + int(leafCap)%16
		checkBuildAgreement(t, nn, seed, cap)
	})
}
