package hostk_test

import (
	"testing"

	"repro/internal/hostk"
	"repro/internal/rng"
	"repro/internal/vec"
)

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
	return ipos, jpos, jmass, list
}

// BenchmarkHostP2P compares the retired scalar host loop against the
// SoA pair kernel on a treecode-shaped batch (group of 64 i-particles,
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
			for i := 0; i < ni; i += 2 {
				a, pa, c, pc := hostk.P2PPair(ipos[i], ipos[i+1], &list, eps2)
				acc[i], acc[i+1] = acc[i].Add(a), acc[i+1].Add(c)
				pot[i] += pa
				pot[i+1] += pc
			}
		}
	})
}

// BenchmarkGuardCheck compares the guard's probe reference — one field
// point against a whole batch j-list — before and after rerouting it
// through the shared pair kernel, the probe passed as both points.
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
			_, _, _, _ = hostk.P2PPair(probe, probe, &list, eps2)
		}
	})
}

var benchSink int

// sinkCount defeats dead-code elimination of the benchmark bodies.
func sinkCount(b *testing.B, v int) {
	b.Helper()
	benchSink += v
}
