package hostk_test

import (
	"math"
	"testing"

	"repro/internal/hostk"
	"repro/internal/octree"
	"repro/internal/rng"
	"repro/internal/vec"
)

// FuzzHostKernelSoA cross-validates P2P against the scalar loop over
// random batch sizes in 1..3·JTile (so every tail-lane configuration —
// full tiles, partial remainder, padded and unpadded — is hit) plus
// random geometry, masses, softening and planted zero-separation pairs,
// and the walk's MAC against the scalar reference pair on random boxes
// and points. Inputs are kept finite: FMA-free bitwise equivalence is
// only claimed for finite lanes (NaN propagation is hardware-defined),
// and the simulation never feeds non-finite state.
func FuzzHostKernelSoA(f *testing.F) {
	f.Add(uint64(1), uint8(1), false, false)
	f.Add(uint64(2), uint8(hostk.JTile), true, false)
	f.Add(uint64(3), uint8(hostk.JTile+1), true, true)
	f.Add(uint64(4), uint8(2*hostk.JTile+3), false, true)
	f.Add(uint64(5), uint8(3*hostk.JTile), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, njRaw uint8, pad, self bool) {
		nj := 1 + int(njRaw)%(3*hostk.JTile)
		r := rng.New(seed)

		// --- P2P vs the retired scalar loop ---
		pi := vec.V3{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)}
		eps := 0.0
		if r.Float64() < 0.8 {
			eps = r.Float64() * 0.2
		}
		jpos := make([]vec.V3, nj)
		jmass := make([]float64, nj)
		var list hostk.JList
		for j := 0; j < nj; j++ {
			jpos[j] = vec.V3{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)}
			if self && j%3 == 0 {
				jpos[j] = pi // exact zero separation: the guard lane
			}
			jmass[j] = r.Float64() * 2
			list.Append(jpos[j].X, jpos[j].Y, jpos[j].Z, jmass[j])
		}
		if pad {
			list.Pad()
		}
		var wantAcc [1]vec.V3
		var wantPot [1]float64
		hostk.ScalarAccumulate(1, eps, []vec.V3{pi}, jpos, jmass, wantAcc[:], wantPot[:])
		ax, ay, az, pot := hostk.P2P(pi.X, pi.Y, pi.Z, &list, eps*eps)
		if (vec.V3{X: ax, Y: ay, Z: az}) != wantAcc[0] || pot != wantPot[0] {
			t.Fatalf("P2P diverged from scalar (nj=%d pad=%v self=%v eps=%g):\n soa acc=(%x %x %x) pot=%x\n ref acc=(%x %x %x) pot=%x",
				nj, pad, self, eps,
				math.Float64bits(ax), math.Float64bits(ay), math.Float64bits(az), math.Float64bits(pot),
				math.Float64bits(wantAcc[0].X), math.Float64bits(wantAcc[0].Y), math.Float64bits(wantAcc[0].Z), math.Float64bits(wantPot[0]))
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
