package octree

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

func randomSystem(n int, seed uint64) *nbody.System {
	r := rng.New(seed)
	s := nbody.New(n)
	for i := range s.Pos {
		s.Pos[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Mass[i] = 0.5 + r.Float64()
	}
	return s
}

func TestBuildSmall(t *testing.T) {
	s := randomSystem(100, 1)
	tr, err := NewBuilder(BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root().Count != 100 {
		t.Errorf("root count = %d", tr.Root().Count)
	}
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := NewBuilder(BuilderOptions{}).Build(nbody.New(0)); err == nil {
		t.Error("empty build should fail")
	}
}

func TestBuildSingleParticle(t *testing.T) {
	s := nbody.New(1)
	s.Mass[0] = 2
	s.Pos[0] = vec.V3{X: 1, Y: 2, Z: 3}
	tr, err := NewBuilder(BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root().Leaf {
		t.Error("single particle should be a leaf root")
	}
	if tr.Root().Mass != 2 {
		t.Errorf("root mass = %v", tr.Root().Mass)
	}
	if tr.Root().COM.Sub(s.Pos[0]).Norm() > 1e-12 {
		t.Errorf("root COM = %v", tr.Root().COM)
	}
}

func TestBuildCoincidentParticles(t *testing.T) {
	// All particles at the same point: depth cap must terminate the
	// subdivision.
	s := nbody.New(20)
	for i := range s.Pos {
		s.Pos[i] = vec.V3{X: 1, Y: 1, Z: 1}
		s.Mass[i] = 1
	}
	tr, err := NewBuilder(BuilderOptions{LeafCap: 2}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root().Mass != 20 {
		t.Errorf("root mass = %v", tr.Root().Mass)
	}
}

func TestRootAggregates(t *testing.T) {
	s := randomSystem(500, 2)
	wantMass := s.TotalMass()
	wantCOM := s.CenterOfMass()
	tr, err := NewBuilder(BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Root().Mass-wantMass) > 1e-9 {
		t.Errorf("root mass = %v, want %v", tr.Root().Mass, wantMass)
	}
	if tr.Root().COM.Sub(wantCOM).Norm() > 1e-9 {
		t.Errorf("root COM = %v, want %v", tr.Root().COM, wantCOM)
	}
}

func TestLeafCapRespected(t *testing.T) {
	s := randomSystem(1000, 3)
	tr, err := NewBuilder(BuilderOptions{LeafCap: 4}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	cells := replayBuild(tr, 4)
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if level := cells[i].level; n.Leaf && int(n.Count) > 4 && level < 20 {
			t.Errorf("leaf %d has %d > 4 particles at level %d", i, n.Count, level)
		}
	}
}

// TestNodeSize pins the node record at 56 bytes, the fields the walk
// and the centre-of-mass passes read, so that a new field cannot grow
// both node arenas unnoticed.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 56", got)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	s := randomSystem(200, 4)
	tr, err := NewBuilder(BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	tr.Nodes[0].Mass *= 2
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted corrupted root mass")
	}
}

func TestGroupsPartition(t *testing.T) {
	s := randomSystem(2000, 5)
	tr, err := NewBuilder(BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, ncrit := range []int{1, 8, 64, 500, 5000} {
		groups := tr.Groups(ncrit)
		covered := make([]bool, s.N())
		for _, g := range groups {
			if int(g.Count) > ncrit && !tr.Nodes[g.Node].Leaf {
				t.Errorf("ncrit=%d: non-leaf group of %d particles", ncrit, g.Count)
			}
			for i := g.Start; i < g.Start+g.Count; i++ {
				if covered[i] {
					t.Fatalf("ncrit=%d: particle %d in two groups", ncrit, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("ncrit=%d: particle %d not in any group", ncrit, i)
			}
		}
	}
}

func TestGroupsNcritOne(t *testing.T) {
	s := randomSystem(100, 6)
	tr, _ := NewBuilder(BuilderOptions{LeafCap: 1}).Build(s)
	groups := tr.Groups(1)
	if len(groups) != 100 {
		t.Errorf("ncrit=1 leafcap=1 gives %d groups, want 100", len(groups))
	}
}

func TestGroupsLargeNcritSingleGroup(t *testing.T) {
	s := randomSystem(100, 7)
	tr, _ := NewBuilder(BuilderOptions{}).Build(s)
	groups := tr.Groups(1000)
	if len(groups) != 1 {
		t.Errorf("ncrit > N gives %d groups, want 1", len(groups))
	}
}

// Property: tree invariants hold for random systems of random size.
func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		s := randomSystem(n, seed^0xabcdef)
		tr, err := NewBuilder(BuilderOptions{LeafCap: 1 + r.Intn(16)}).Build(s)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderIsContiguous(t *testing.T) {
	// After Build, each node's particles must be contiguous: verified
	// implicitly by Validate, but also check that leaves cover [0, N).
	s := randomSystem(777, 8)
	tr, _ := NewBuilder(BuilderOptions{}).Build(s)
	var total int32
	for i := range tr.Nodes {
		if tr.Nodes[i].Leaf {
			total += tr.Nodes[i].Count
		}
	}
	if total != 777 {
		t.Errorf("leaf counts sum to %d", total)
	}
}

func TestOpenCriterion(t *testing.T) {
	n := &Node{Size: 1}
	mac := OpenCriterion{Theta: 0.5}
	// Accept requires d > s/θ = 2, i.e. d2 > 4.
	if mac.Accept(n, 3.9) {
		t.Error("accepted too close")
	}
	if !mac.Accept(n, 4.1) {
		t.Error("rejected far cell")
	}
	// θ=0 never accepts.
	zero := OpenCriterion{Theta: 0}
	if zero.Accept(n, 1e30) {
		t.Error("θ=0 accepted a cell")
	}
}

func TestInsertionTreeMatchesMortonTree(t *testing.T) {
	s := randomSystem(512, 10)
	ref, err := BuildInsertion(s.Clone(), 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewBuilder(BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref.RootMass()-tr.Root().Mass) > 1e-9 {
		t.Errorf("root mass: insertion %v vs morton %v", ref.RootMass(), tr.Root().Mass)
	}
	if ref.RootCOM().Sub(tr.Root().COM).Norm() > 1e-9 {
		t.Errorf("root COM: insertion %v vs morton %v", ref.RootCOM(), tr.Root().COM)
	}
}

func TestInsertionTreeLeafCount(t *testing.T) {
	s := randomSystem(256, 11)
	tr, err := BuildInsertion(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CountLeaves() == 0 {
		t.Error("no leaves")
	}
	// Every particle must be in exactly one leaf.
	seen := make([]bool, s.N())
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if !n.leaf {
			continue
		}
		for _, p := range n.particles {
			if seen[p] {
				t.Fatalf("particle %d in two leaves", p)
			}
			seen[p] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("particle %d lost", i)
		}
	}
}

func TestInsertionEmptyFails(t *testing.T) {
	if _, err := BuildInsertion(nbody.New(0), 8); err == nil {
		t.Error("empty insertion build should fail")
	}
}
