package hostk_test

import (
	"math"
	"testing"

	"repro/internal/hostk"
	"repro/internal/octree"
	"repro/internal/rng"
	"repro/internal/vec"
)

// FuzzHostKernelSoA cross-validates P2PPair against the scalar loop
// over random list lengths 0..48 and random geometry, masses, softening
// and planted zero-separation pairs for either point — each pair driven
// as (p, q), (q, p) and (p, p) — and the walk's MAC against the scalar
// reference pair on random boxes and points. Inputs are kept finite:
// FMA-free bitwise equivalence is only claimed for finite lanes (NaN
// propagation is hardware-defined), and the simulation never feeds
// non-finite state.
func FuzzHostKernelSoA(f *testing.F) {
	f.Add(uint64(1), uint8(1), false)
	f.Add(uint64(2), uint8(8), false)
	f.Add(uint64(3), uint8(9), true)
	f.Add(uint64(4), uint8(19), true)
	f.Add(uint64(5), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, njRaw uint8, self bool) {
		nj := int(njRaw) % 49
		r := rng.New(seed)

		// --- P2PPair vs the retired scalar loop ---
		pts := []vec.V3{
			{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)},
			{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)},
		}
		eps := 0.0
		if r.Float64() < 0.8 {
			eps = r.Float64() * 0.2
		}
		jpos := make([]vec.V3, nj)
		jmass := make([]float64, nj)
		var list hostk.JList
		for j := 0; j < nj; j++ {
			jpos[j] = vec.V3{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)}
			if self && j%3 != 2 {
				jpos[j] = pts[j%3] // exact zero separation: the guard lane
			}
			jmass[j] = r.Float64() * 2
			list.Append(jpos[j].X, jpos[j].Y, jpos[j].Z, jmass[j])
		}
		var wantAcc [2]vec.V3
		var wantPot [2]float64
		hostk.ScalarAccumulate(1, eps, pts, jpos, jmass, wantAcc[:], wantPot[:])
		for _, pq := range [][2]int{{0, 1}, {1, 0}, {0, 0}} {
			a, pa, b, pb := hostk.P2PPair(pts[pq[0]], pts[pq[1]], &list, eps*eps)
			for s, got := range []p2pResult{{a, pa}, {b, pb}} {
				i := pq[s]
				if got.acc != wantAcc[i] || got.pot != wantPot[i] {
					t.Fatalf("P2PPair(%d, %d) point %d diverged from scalar (nj=%d self=%v eps=%g):\n soa acc=(%x %x %x) pot=%x\n ref acc=(%x %x %x) pot=%x",
						pq[0], pq[1], i, nj, self, eps,
						math.Float64bits(got.acc.X), math.Float64bits(got.acc.Y), math.Float64bits(got.acc.Z), math.Float64bits(got.pot),
						math.Float64bits(wantAcc[i].X), math.Float64bits(wantAcc[i].Y), math.Float64bits(wantAcc[i].Z), math.Float64bits(wantPot[i]))
				}
			}
		}

		// --- the walk's MAC vs OpenCriterion.Accept on Box.Dist2 ---
		lo := vec.V3{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)}
		box := vec.Box{Min: lo, Max: lo.Add(vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()})}
		if r.Float64() < 0.25 {
			box.Max = lo // a field particle's box
		}
		theta := r.Float64() * 1.5
		if r.Float64() < 0.05 {
			theta = 0
		}
		mac := octree.OpenCriterion{Theta: theta}
		for k := 0; k < 8; k++ {
			com := vec.V3{X: r.Uniform(-4, 4), Y: r.Uniform(-4, 4), Z: r.Uniform(-4, 4)}
			if k%4 == 0 {
				// Place some candidates inside or on the sink surface.
				com = lo.Add(vec.V3{X: r.Float64() * (box.Max.X - lo.X), Y: 0, Z: 0})
			}
			n := octree.Node{COM: com, Size: r.Float64()}
			if k%5 == 0 {
				n.Size = 0 // zero-size cells
			}
			if got, want := walkAccepts(box, n, mac), mac.Accept(&n, box.Dist2(com)); got != want {
				t.Fatalf("MAC cell %d diverged: walk=%v scalar=%v (com=%v size=%g box=%v theta=%g)",
					k, got, want, com, n.Size, box, theta)
			}
			checkPointBox(t, box, com)
		}
	})
}
