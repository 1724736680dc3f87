package g5

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// BenchmarkG5Kernel times the pair loop alone, each body
// called by name on one staged batch: the rows the root package's
// benchmark of the same name cannot reach (it goes through an engine and
// runs whichever body this machine picks). ns/interaction counts ni x nj
// pairs, as there; the shapes are its rows' too.
func BenchmarkG5Kernel(b *testing.B) {
	for _, body := range []laneBody{avx512Body, avx2Body, portableBody} {
		for _, shape := range [][2]int{{96, 2000}, {60, 620}} {
			ni, nj := shape[0], shape[1]
			b.Run(fmt.Sprintf("%s/%dx%d", laneNames[body], ni, nj), func(b *testing.B) {
				if body > hostLanes {
					b.Skipf("this CPU runs %s at best", laneNames[hostLanes])
				}
				r := rng.New(9)
				grid := NewFixedGrid(-100, 100, PosBits)
				point := func() vec.V3 {
					x, _ := grid.Quantize(r.Uniform(-50, 50))
					y, _ := grid.Quantize(r.Uniform(-50, 50))
					z, _ := grid.Quantize(r.Uniform(-50, 50))
					return vec.V3{X: x, Y: y, Z: z}
				}
				iq, jq, mq := make([]vec.V3, ni), make([]vec.V3, nj), make([]float64, nj)
				for i := range iq {
					iq[i] = point()
				}
				for j := range jq {
					jq[j], mq[j] = point(), 1
				}
				acc, pot := make([]vec.V3, ni), make([]float64, ni)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					pipeline(iq, jq, mq, nil, 1e-4, PipeBits, R2Bits, body, acc, pot)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(ni*nj)*float64(b.N)), "ns/interaction")
			})
		}
	}
}

// BenchmarkAblationPipelinePrecision: the functional emulation's cost
// through the unguarded engine, at the paper's budgets and at the exact
// ones (float64 formats): 96 field points on 2000 sources a call.
func BenchmarkAblationPipelinePrecision(b *testing.B) {
	for _, c := range []struct {
		name string
		hw   installation
	}{{"paper", paper}, {"exact", exact}} {
		b.Run(c.name, func(b *testing.B) {
			sys, err := newSystem(c.hw, Config{})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.SetScale(-100, 100); err != nil {
				b.Fatal(err)
			}
			e := NewEngine(sys, 1)
			req := randomRequest(rng.New(9), 96, 2000)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				e.Accumulate(req)
			}
			b.ReportMetric(float64(96*2000*b.N)/b.Elapsed().Seconds(), "interactions/s")
		})
	}
}
