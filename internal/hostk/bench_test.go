package hostk_test

import (
	"testing"

	"repro/internal/hostk"
	"repro/internal/octree"
	"repro/internal/rng"
	"repro/internal/vec"
)

// benchNodes builds a candidate-cell population around a unit sink box,
// mixing accepted and opened cells the way a real walk frontier does.
func benchNodes(n int) ([]octree.Node, vec.Box) {
	r := rng.New(99)
	box := unitBox()
	nodes := make([]octree.Node, n)
	for i := range nodes {
		nodes[i] = octree.Node{
			COM:  vec.V3{X: r.Uniform(-4, 5), Y: r.Uniform(-4, 5), Z: r.Uniform(-4, 5)},
			Size: r.Float64(),
		}
	}
	return nodes, box
}

// BenchmarkMACBatch compares the retired per-node MAC chain
// (vec.Box.Dist2 + octree.OpenCriterion.Accept) against the batched SoA
// kernel, gather cost included — both sides consume the same AoS node
// slice, exactly as the walk does.
func BenchmarkMACBatch(b *testing.B) {
	const nNodes = 4096
	nodes, box := benchNodes(nNodes)
	mac := octree.OpenCriterion{Theta: 0.75}
	b.Run("scalar", func(b *testing.B) {
		accepted := 0
		for it := 0; it < b.N; it++ {
			for i := range nodes {
				if mac.Accept(&nodes[i], box.Dist2(nodes[i].COM)) {
					accepted++
				}
			}
		}
		sinkCount(b, accepted)
	})
	b.Run("soa", func(b *testing.B) {
		sink := sinkFor(box, mac.Theta)
		var x, y, z, eff [hostk.MACWidth]float64
		var out [hostk.MACWidth]bool
		accepted := 0
		for it := 0; it < b.N; it++ {
			for base := 0; base+hostk.MACWidth <= len(nodes); base += hostk.MACWidth {
				for k := 0; k < hostk.MACWidth; k++ {
					n := &nodes[base+k]
					x[k], y[k], z[k] = n.COM.X, n.COM.Y, n.COM.Z
					eff[k] = n.Size
				}
				sink.Accept(&x, &y, &z, &eff, &out)
				for k := 0; k < hostk.MACWidth; k++ {
					if out[k] {
						accepted++
					}
				}
			}
		}
		sinkCount(b, accepted)
	})
}

// benchBatch builds one force batch of the given size in both layouts.
func benchBatch(ni, nj int) (ipos, jpos []vec.V3, jmass []float64, list hostk.JList) {
	r := rng.New(123)
	ipos = make([]vec.V3, ni)
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
	}
	jpos = make([]vec.V3, nj)
	jmass = make([]float64, nj)
	for j := range jpos {
		jpos[j] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
		jmass[j] = r.Float64()
		list.Append(jpos[j].X, jpos[j].Y, jpos[j].Z, jmass[j])
	}
	list.Pad()
	return ipos, jpos, jmass, list
}

// BenchmarkHostP2P compares the retired scalar host loop against the
// SoA tile kernel on a treecode-shaped batch (group of 64 i-particles,
// ~2k-entry shared j-list).
func BenchmarkHostP2P(b *testing.B) {
	const ni, nj = 64, 2000
	ipos, jpos, jmass, list := benchBatch(ni, nj)
	acc := make([]vec.V3, ni)
	pot := make([]float64, ni)
	const eps = 0.01
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(ni * nj * 8))
		for it := 0; it < b.N; it++ {
			hostk.ScalarAccumulate(1, eps, ipos, jpos, jmass, acc, pot)
		}
	})
	b.Run("soa", func(b *testing.B) {
		b.SetBytes(int64(ni * nj * 8))
		const eps2 = eps * eps
		for it := 0; it < b.N; it++ {
			for i, pi := range ipos {
				ax, ay, az, p := hostk.P2P(pi.X, pi.Y, pi.Z, &list, eps2)
				acc[i] = acc[i].Add(vec.V3{X: ax, Y: ay, Z: az})
				pot[i] += p
			}
		}
	})
}

// BenchmarkGuardCheck compares the guard's probe reference — one field
// point against a whole batch j-list — before and after rerouting it
// through the shared P2P kernel.
func BenchmarkGuardCheck(b *testing.B) {
	const nj = 4000
	_, jpos, jmass, list := benchBatch(1, nj)
	probe := vec.V3{X: 0.382, Y: 0.382, Z: 0.382}
	const eps = 0.02
	b.Run("scalar", func(b *testing.B) {
		var acc [1]vec.V3
		var pot [1]float64
		for it := 0; it < b.N; it++ {
			acc[0], pot[0] = vec.Zero, 0
			hostk.ScalarAccumulate(1, eps, []vec.V3{probe}, jpos, jmass, acc[:], pot[:])
		}
	})
	b.Run("soa", func(b *testing.B) {
		const eps2 = eps * eps
		for it := 0; it < b.N; it++ {
			_, _, _, _ = hostk.P2P(probe.X, probe.Y, probe.Z, &list, eps2)
		}
	})
}

var benchSink int

// sinkCount defeats dead-code elimination of the benchmark bodies.
func sinkCount(b *testing.B, v int) {
	b.Helper()
	benchSink += v
}
