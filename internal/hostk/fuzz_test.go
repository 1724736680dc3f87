package hostk_test

import (
	"math"
	"testing"

	"repro/internal/hostk"
	"repro/internal/octree"
	"repro/internal/rng"
	"repro/internal/vec"
)

// FuzzHostKernelSoA cross-validates the SoA kernels against the scalar
// references over random batch sizes in 1..3·JTile (so every tail-lane
// configuration — full tiles, partial remainder, padded and unpadded —
// is hit) plus random geometry, masses, softening and planted
// zero-separation pairs. Inputs are kept finite: FMA-free bitwise
// equivalence is only claimed for finite lanes (NaN propagation is
// hardware-defined), and the simulation never feeds non-finite state.
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

		// --- MAC batch vs OpenCriterion.Accept ---
		lo := vec.V3{X: r.Uniform(-2, 2), Y: r.Uniform(-2, 2), Z: r.Uniform(-2, 2)}
		box := vec.Box{Min: lo, Max: lo.Add(vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()})}
		theta := r.Float64() * 1.5
		if r.Float64() < 0.05 {
			theta = 0
		}
		sink := hostk.MACSink{
			MinX: box.Min.X, MinY: box.Min.Y, MinZ: box.Min.Z,
			MaxX: box.Max.X, MaxY: box.Max.Y, MaxZ: box.Max.Z,
			Theta2: theta * theta,
		}
		var x, y, z, eff [hostk.MACWidth]float64
		var out [hostk.MACWidth]bool
		nodes := make([]octree.Node, hostk.MACWidth)
		for k := range nodes {
			com := vec.V3{X: r.Uniform(-4, 4), Y: r.Uniform(-4, 4), Z: r.Uniform(-4, 4)}
			if k%4 == 0 {
				// Place some candidates inside or on the sink surface.
				com = lo.Add(vec.V3{X: r.Float64() * (box.Max.X - lo.X), Y: 0, Z: 0})
			}
			nodes[k] = octree.Node{COM: com, Size: r.Float64()}
			if k%5 == 0 {
				nodes[k].Size = 0 // zero-size cells
			}
			x[k], y[k], z[k] = com.X, com.Y, com.Z
			eff[k] = nodes[k].Size
		}
		sink.Accept(&x, &y, &z, &eff, &out)
		mac := octree.OpenCriterion{Theta: theta}
		for k := range nodes {
			if want := mac.Accept(&nodes[k], box.Dist2(nodes[k].COM)); out[k] != want {
				t.Fatalf("MAC lane %d diverged: soa=%v scalar=%v (com=%v eff=%g box=%v theta=%g)",
					k, out[k], want, nodes[k].COM, eff[k], box, theta)
			}
		}
	})
}
