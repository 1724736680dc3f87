package g5

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// BenchmarkG5Kernel times the pair loop alone, each select-free body
// called by name on one staged batch: the rows the root package's
// benchmark of the same name cannot reach (it goes through an engine and
// runs whichever body this machine picks). ns/interaction counts ni x nj
// pairs, as there; the shapes are its rows' too.
func BenchmarkG5Kernel(b *testing.B) {
	for _, c := range []struct {
		name   string
		lanes  bool
		ni, nj int
	}{
		{"lanes/96x2000", true, 96, 2000},
		{"lanes/60x620", true, 60, 620},
		{"portable/96x2000", false, 96, 2000},
		{"portable/60x620", false, 60, 620},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.lanes && !haveLanes {
				b.Skip("no AVX2 here")
			}
			r := rng.New(9)
			grid := NewFixedGrid(-100, 100, DefaultConfig().PosBits)
			point := func() vec.V3 {
				x, _ := grid.Quantize(r.Uniform(-50, 50))
				y, _ := grid.Quantize(r.Uniform(-50, 50))
				z, _ := grid.Quantize(r.Uniform(-50, 50))
				return vec.V3{X: x, Y: y, Z: z}
			}
			iq, jq, mq := make([]vec.V3, c.ni), make([]vec.V3, c.nj), make([]float64, c.nj)
			for i := range iq {
				iq[i] = point()
			}
			for j := range jq {
				jq[j], mq[j] = point(), 1
			}
			acc, pot := make([]vec.V3, c.ni), make([]float64, c.ni)
			cfg := DefaultConfig()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				pipeline(iq, jq, mq, nil, 1e-4, cfg.PipeBits, cfg.R2Bits, true, c.lanes, acc, pot)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(c.ni*c.nj)*float64(b.N)), "ns/interaction")
		})
	}
}
