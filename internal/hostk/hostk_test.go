package hostk_test

import (
	"math"
	"testing"

	"repro/internal/hostk"
	"repro/internal/octree"
	"repro/internal/rng"
	"repro/internal/vec"
)

// macCase is one adversarial MAC geometry: a sink box and a candidate
// cell placed to stress the accept boundary.
type macCase struct {
	name  string
	box   vec.Box
	com   vec.V3
	size  float64
	theta float64
}

func unitBox() vec.Box {
	return vec.Box{Min: vec.V3{X: 0, Y: 0, Z: 0}, Max: vec.V3{X: 1, Y: 1, Z: 1}}
}

func macCases() []macCase {
	b := unitBox()
	return []macCase{
		{name: "far-cell-accepted", box: b, com: vec.V3{X: 10, Y: 0.5, Z: 0.5}, size: 1, theta: 0.75},
		{name: "near-cell-opened", box: b, com: vec.V3{X: 1.1, Y: 0.5, Z: 0.5}, size: 1, theta: 0.75},
		{name: "com-inside-sink", box: b, com: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, size: 0.5, theta: 0.75},
		{name: "com-on-face", box: b, com: vec.V3{X: 1, Y: 0.5, Z: 0.5}, size: 0.25, theta: 0.75},
		{name: "com-on-corner", box: b, com: vec.V3{X: 1, Y: 1, Z: 1}, size: 0.25, theta: 0.75},
		{name: "zero-size-inside", box: b, com: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, size: 0, theta: 0.75},
		{name: "zero-size-outside", box: b, com: vec.V3{X: 3, Y: 3, Z: 3}, size: 0, theta: 0.75},
		{name: "theta-zero-far", box: b, com: vec.V3{X: 100, Y: 100, Z: 100}, size: 0.1, theta: 0},
		{name: "theta-zero-zero-size", box: b, com: vec.V3{X: 100, Y: 100, Z: 100}, size: 0, theta: 0},
		{name: "boundary-exact", box: b, com: vec.V3{X: 2, Y: 0.5, Z: 0.5}, size: 0.75, theta: 0.75},
		{name: "negative-coords", box: vec.Box{Min: vec.V3{X: -2, Y: -2, Z: -2}, Max: vec.V3{X: -1, Y: -1, Z: -1}},
			com: vec.V3{X: -4, Y: -1.5, Z: -1.5}, size: 0.5, theta: 0.6},
		{name: "tiny-theta", box: b, com: vec.V3{X: 1e8, Y: 0, Z: 0}, size: 1e-8, theta: 1e-9},
		{name: "degenerate-point-box", box: vec.Box{Min: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Max: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}},
			com: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, size: 0.1, theta: 0.75},
		{name: "point-box", box: vec.Box{Min: vec.V3{X: 0.3, Y: -0.7, Z: 2}, Max: vec.V3{X: 0.3, Y: -0.7, Z: 2}},
			com: vec.V3{X: 1.3, Y: -0.7, Z: -0.1}, size: 0.4, theta: 0.75},
	}
}

// walkAccepts is the tree walk's MAC verdict on cell n seen from box b:
// Walk over a tree holding n alone, as an empty leaf, lists n exactly
// when it accepts it.
func walkAccepts(b vec.Box, n octree.Node, mac octree.OpenCriterion) bool {
	n.Leaf, n.Next = true, 1
	tree := &octree.Tree{Nodes: []octree.Node{n}}
	_, cells, _ := tree.Walk(b, mac, -1, nil)
	return cells == 1
}

// checkPointBox: when b is a point (a field particle's box), its box
// distance must equal vec.V3.Dist2 bit for bit, the distance the
// original algorithm's MAC is defined on.
func checkPointBox(t *testing.T, b vec.Box, com vec.V3) {
	t.Helper()
	if b.Min != b.Max {
		return
	}
	if got, want := b.Dist2(com), b.Min.Dist2(com); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("point box %v: Box.Dist2 = %x, V3.Dist2 = %x", b.Min, math.Float64bits(got), math.Float64bits(want))
	}
}

// TestSoAMatchesScalar is the differential conformance suite of the
// host's hot paths: P2P must equal the scalar loop bit for bit, and
// the MAC written out inside octree.Tree.Walk must agree bool for bool
// with the scalar reference pair, OpenCriterion.Accept on
// vec.Box.Dist2.
func TestSoAMatchesScalar(t *testing.T) {
	t.Run("mac-table", func(t *testing.T) {
		for _, c := range macCases() {
			c := c
			t.Run(c.name, func(t *testing.T) {
				n := octree.Node{COM: c.com, Size: c.size}
				mac := octree.OpenCriterion{Theta: c.theta}
				want := mac.Accept(&n, c.box.Dist2(c.com))
				if got := walkAccepts(c.box, n, mac); got != want {
					t.Fatalf("walk accept=%v, scalar accept=%v", got, want)
				}
				checkPointBox(t, c.box, c.com)
			})
		}
	})

	t.Run("mac-random", func(t *testing.T) {
		r := rng.New(42)
		mixed := 0
		const trials, perTrial = 2000, 8
		for trial := 0; trial < trials; trial++ {
			lo := vec.V3{X: r.Float64() * 2, Y: r.Float64() * 2, Z: r.Float64() * 2}
			box := vec.Box{Min: lo, Max: lo.Add(vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()})}
			if trial%4 == 0 {
				box.Max = lo // a field particle's box
			}
			theta := r.Float64() * 1.5
			mac := octree.OpenCriterion{Theta: theta}
			for k := 0; k < perTrial; k++ {
				n := octree.Node{
					COM:  vec.V3{X: (r.Float64() - 0.5) * 8, Y: (r.Float64() - 0.5) * 8, Z: (r.Float64() - 0.5) * 8},
					Size: r.Float64() * 2,
				}
				want := mac.Accept(&n, box.Dist2(n.COM))
				if got := walkAccepts(box, n, mac); got != want {
					t.Fatalf("trial %d cell %d: walk=%v scalar=%v (com %v box %v theta %g)",
						trial, k, got, want, n.COM, box, theta)
				}
				checkPointBox(t, box, n.COM)
				if want {
					mixed++
				}
			}
		}
		if mixed == 0 || mixed == trials*perTrial {
			t.Fatalf("degenerate random MAC coverage: %d accepts", mixed)
		}
	})

	t.Run("p2p", func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			ni     int
			nj     int
			eps    float64
			g      float64
			self   bool // plant exact zero-separation pairs
			pad    bool
			origin bool // first field point at the origin, where the pad lanes sit
			lanes  int  // 1: an infinite mass and an infinite coordinate; 2: a NaN coordinate
		}{
			{name: "single-pair", ni: 1, nj: 1, eps: 0.01, g: 1},
			{name: "one-tile-exact", ni: 3, nj: hostk.JTile, eps: 0.05, g: 2},
			{name: "tail-lane", ni: 4, nj: hostk.JTile + 3, eps: 0.05, g: 1, pad: true},
			{name: "self-pairs", ni: 8, nj: 40, eps: 0.02, g: 1, self: true, pad: true},
			{name: "self-pairs-zero-eps", ni: 5, nj: 21, eps: 0, g: 1, self: true, pad: true},
			{name: "origin-zero-eps", ni: 3, nj: 5, eps: 0, g: 1, pad: true, origin: true},
			{name: "large-unpadded", ni: 16, nj: 137, eps: 0.01, g: 0.5},
			{name: "inf-lanes", ni: 3, nj: 12, eps: 0.01, g: 1, pad: true, lanes: 1},
			{name: "nan-lane", ni: 3, nj: 12, eps: 0.01, g: 1, lanes: 2},
			{name: "empty-list", ni: 3, nj: 0, eps: 0.01, g: 1, pad: true},
		} {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				r := rng.New(7)
				ipos := make([]vec.V3, tc.ni)
				for i := range ipos {
					ipos[i] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
				}
				if tc.origin {
					ipos[0] = vec.Zero
				}
				jpos := make([]vec.V3, tc.nj)
				jmass := make([]float64, tc.nj)
				for j := range jpos {
					jpos[j] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
					if tc.self && j%5 == 0 {
						jpos[j] = ipos[j%tc.ni] // exact zero separation
					}
					jmass[j] = r.Float64()
				}
				switch tc.lanes {
				case 1:
					jmass[1], jpos[3].X = math.Inf(1), math.Inf(-1)
				case 2:
					jpos[2].Y = math.NaN()
				}
				var list hostk.JList
				for j, pj := range jpos {
					list.Append(pj.X, pj.Y, pj.Z, jmass[j])
				}
				if tc.pad {
					list.Pad()
					if list.Len()%hostk.JTile != 0 || list.N != tc.nj {
						t.Fatalf("Pad broke invariants: len=%d N=%d", list.Len(), list.N)
					}
				}

				wantAcc := make([]vec.V3, tc.ni)
				wantPot := make([]float64, tc.ni)
				hostk.ScalarAccumulate(tc.g, tc.eps, ipos, jpos, jmass, wantAcc, wantPot)

				eps2 := tc.eps * tc.eps
				for i, pi := range ipos {
					ax, ay, az, pot := hostk.P2P(pi.X, pi.Y, pi.Z, &list, eps2)
					got := p2pResult{vec.V3{X: tc.g * ax, Y: tc.g * ay, Z: tc.g * az}, tc.g * pot}
					got.mustEqual(t, i, p2pResult{wantAcc[i], wantPot[i]})
				}
			})
		}
	})
}

// p2pResult is one field point's force and potential, compared on the
// bit patterns so that a zero's sign or a NaN cannot hide.
type p2pResult struct {
	acc vec.V3
	pot float64
}

func (got p2pResult) mustEqual(t *testing.T, i int, want p2pResult) {
	t.Helper()
	g := [4]float64{got.acc.X, got.acc.Y, got.acc.Z, got.pot}
	w := [4]float64{want.acc.X, want.acc.Y, want.acc.Z, want.pot}
	for c := range g {
		if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
			t.Fatalf("i=%d component %d: SoA %016x (%v) != scalar %016x (%v)",
				i, c, math.Float64bits(g[c]), g[c], math.Float64bits(w[c]), w[c])
		}
	}
}

// TestJListCopyFrom pins the snapshot semantics: padding and the real
// count survive the copy, and the copy aliases nothing.
func TestJListCopyFrom(t *testing.T) {
	var src hostk.JList
	src.Append(1, 2, 3, 4)
	src.Append(5, 6, 7, 8)
	src.Pad()
	var dst hostk.JList
	dst.Append(9, 9, 9, 9) // stale content must be discarded
	dst.CopyFrom(&src)
	if dst.N != 2 || dst.Len() != src.Len() {
		t.Fatalf("copy: N=%d len=%d, want N=2 len=%d", dst.N, dst.Len(), src.Len())
	}
	src.X[0] = -1
	if dst.X[0] != 1 {
		t.Fatal("CopyFrom aliased the source storage")
	}
}
