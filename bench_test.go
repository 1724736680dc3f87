package grape5

// Component, ablation and extension benchmarks: each subsystem's rate
// and the design choices DESIGN.md calls out, with derived quantities
// attached through b.ReportMetric. The paper's evaluation numbers are
// not here: `perfreport record` writes them all to BENCH_treecode.json.

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/g5"
	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/octree"
	"repro/internal/perf"
	"repro/internal/rng"
	"repro/internal/vec"
)

// ---------------------------------------------------------------------
// Component benchmarks
// ---------------------------------------------------------------------

func benchSystem(n int, seed uint64) *nbody.System {
	return nbody.Plummer(n, 1, 1, 1, rng.New(seed))
}

func BenchmarkTreeBuildMorton(b *testing.B) {
	s := benchSystem(50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := octree.NewBuilder(octree.BuilderOptions{}).Build(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50000*b.N)/b.Elapsed().Seconds(), "particles/s")
}

func BenchmarkMortonKeys(b *testing.B) {
	s := benchSystem(100000, 2)
	box := s.Bounds().Cube()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		morton.KeysInto(nil, s.Pos, box)
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkWalkModified(b *testing.B) {
	s := benchSystem(50000, 3)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 2000, G: 1}, &core.CountEngine{})
	var inter int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tc.ComputeForces(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		inter = st.Interactions
	}
	b.ReportMetric(float64(inter), "interactions/step")
}

func BenchmarkWalkOriginal(b *testing.B) {
	s := benchSystem(50000, 3)
	tc := core.New(core.Options{Theta: 0.75, G: 1}, nil)
	var inter int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := tc.CountOriginal(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		inter = c
	}
	b.ReportMetric(float64(inter), "interactions/step")
}

// BenchmarkHostKernel measures the float64 force pipeline rate.
func BenchmarkHostKernel(b *testing.B) {
	const ni, nj = 96, 2000
	req := kernelRequest(ni, nj)
	e := &core.HostEngine{G: 1, Eps: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Accumulate(req)
	}
	b.ReportMetric(float64(ni*nj*b.N)/b.Elapsed().Seconds(), "interactions/s")
}

// BenchmarkG5Kernel measures the emulated GRAPE-5 pipeline rate (the
// reduced-precision arithmetic is the cost of functional fidelity):
// through the staging Engine at a full pass, and plain against guarded
// at the median batch of the benchmark's grape_plummer8k workload, where
// the guard's probe pass is a second i-group larger than the batch.
// ns/interaction counts the batch's own ni x nj pairs on every row. The
// 2callers row splits its b.N batches between two goroutines on one
// engine, as two walk workers do: the engine serialises the device, not
// the arithmetic, so on two idle cores its aggregate ns/interaction is
// about half the single caller's — the kernel is no faster, two run at
// once. These rows run whichever pair loop the machine picks (AVX-512
// lanes, else AVX2 lanes, else Go); internal/g5's benchmark of the same
// name adds avx512/, avx2/ and portable/ rows, each body called directly,
// so `-bench G5Kernel . ./internal/g5` prints them side by side.
func BenchmarkG5Kernel(b *testing.B) {
	for _, c := range []struct {
		name    string
		ni, nj  int
		guarded bool
		callers int
	}{
		{"plain/96x2000", 96, 2000, false, 1},
		{"plain/60x620", 60, 620, false, 1},
		{"guarded/60x620", 60, 620, true, 1},
		{"guarded-2callers/60x620", 60, 620, true, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			reqs := make([]*core.Request, c.callers) // same inputs, own outputs
			for w := range reqs {
				reqs[w] = kernelRequest(c.ni, c.nj)
			}
			sys, err := g5.NewSystem(g5.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.SetScale(-100, 100); err != nil {
				b.Fatal(err)
			}
			sys.SetEps(0.01)
			var e core.Engine = g5.NewEngine(sys, 1)
			if c.guarded {
				e = g5.NewGuardedEngine(sys, 1, g5.GuardPolicy{})
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w, req := range reqs {
				n := (b.N + w) / c.callers
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						e.Accumulate(req)
					}
				}()
			}
			wg.Wait()
			pairs := float64(c.ni*c.nj) * float64(b.N)
			b.ReportMetric(b.Elapsed().Seconds()*1e9/pairs, "ns/interaction")
			b.ReportMetric(pairs/b.Elapsed().Seconds(), "interactions/s")
			b.ReportMetric(sys.Counters().HWSeconds()/float64(b.N), "modelled-hw-s/op")
		})
	}
}

func kernelRequest(ni, nj int) *core.Request {
	r := rng.New(9)
	req := &core.Request{
		IPos: make([]vec.V3, ni),
		Acc:  make([]vec.V3, ni),
		Pot:  make([]float64, ni),
	}
	for i := range req.IPos {
		req.IPos[i] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
	}
	for j := 0; j < nj; j++ {
		req.J.Append(r.Uniform(-50, 50), r.Uniform(-50, 50), r.Uniform(-50, 50), 1)
	}
	return req
}

func BenchmarkDirectSum(b *testing.B) {
	s := benchSystem(2000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbody.DirectForces(s, 1, 0.01)
	}
	b.ReportMetric(float64(2000*1999*b.N)/b.Elapsed().Seconds(), "interactions/s")
}

func BenchmarkFFT3D(b *testing.B) {
	g, err := fft.NewGrid3(64)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(5)
	for i := range g.Data {
		g.Data[i] = complex(r.Normal(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Forward()
		g.Inverse()
	}
}

func BenchmarkZeldovichICs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := NewCosmoSphere(CosmoSphereParams{GridN: 32, Seed: uint64(i + 1)}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if cs.Sys.N() == 0 {
			b.Fatal("empty realisation")
		}
	}
}

func BenchmarkLeapfrogStep(b *testing.B) {
	s := benchSystem(10000, 6)
	sim, err := NewSimulation(s, Config{Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.02, DT: 1e-4, Engine: EngineHost})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// cosmoSnapshot lazily builds one shared z=24 realisation for the
// benches that run on the paper's problem class.
var cosmoSnapshot = struct {
	once sync.Once
	sys  *nbody.System
}{}

func sharedCosmoSnapshot(b *testing.B) *nbody.System {
	b.Helper()
	cosmoSnapshot.once.Do(func() {
		cs, err := NewCosmoSphere(CosmoSphereParams{GridN: 32, Seed: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		cosmoSnapshot.sys = cs.Sys
	})
	return cosmoSnapshot.sys.Clone()
}

// ---------------------------------------------------------------------
// Ablation benchmarks (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------

// Grouping on/off: cost of the modified vs original algorithm on the
// host (walk + evaluation, float64).
func BenchmarkAblationGroupingOn(b *testing.B) {
	s := benchSystem(20000, 8)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 2000, G: 1, Eps: 0.01}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForces(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGroupingOff(b *testing.B) {
	s := benchSystem(20000, 8)
	tc := core.New(core.Options{Theta: 0.75, G: 1, Eps: 0.01}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForcesOriginal(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// Traversal parallelism: workers 1 vs 4 (on multi-core hosts the
// speedup shows; on 1 CPU this documents the overhead).
func BenchmarkAblationWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkAblationWorkers4(b *testing.B) { benchWorkers(b, 4) }

func benchWorkers(b *testing.B, w int) {
	s := benchSystem(20000, 10)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.01, Workers: w}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForces(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Additional component benches: radix sort, FoF, driver, and the
// original-on-GRAPE counterfactual.
// ---------------------------------------------------------------------

func BenchmarkMortonSortRadix(b *testing.B) {
	s := benchSystem(200000, 11)
	keys := morton.KeysInto(nil, s.Pos, s.Bounds().Cube())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		morton.SortOrderRadixInto[int32](keys, nil, nil)
	}
	b.ReportMetric(float64(len(keys)*b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkFriendsOfFriends(b *testing.B) {
	s := sharedCosmoSnapshot(b)
	b.ResetTimer()
	var halos int
	for i := 0; i < b.N; i++ {
		hs, err := analysis.FriendsOfFriends(s, analysis.FOFOptions{})
		if err != nil {
			b.Fatal(err)
		}
		halos = len(hs)
	}
	b.ReportMetric(float64(halos), "halos")
}

// Ablation: the original algorithm driven through the GRAPE timing
// model — per-particle batches waste 95/96 virtual pipelines, which is
// the §3 argument for grouping. Reported metric: modelled hardware
// seconds per step, to be compared against BenchmarkAblationModifiedOnGRAPE.
func BenchmarkAblationOriginalOnGRAPE(b *testing.B) {
	s := benchSystem(20000, 13)
	var hw float64
	for i := 0; i < b.N; i++ {
		sys, err := g5.NewSystem(g5.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		tc := core.New(core.Options{Theta: 0.75}, perf.NewScheduleEngine(sys))
		if _, err := tc.ComputeForcesOriginal(s.Clone()); err != nil {
			b.Fatal(err)
		}
		hw = sys.Counters().HWSeconds()
	}
	b.ReportMetric(hw, "modelled-hw-s/step")
}

func BenchmarkAblationModifiedOnGRAPE(b *testing.B) {
	s := benchSystem(20000, 13)
	var hw float64
	for i := 0; i < b.N; i++ {
		rep, _, err := perf.TreeStepModel(s, 0.75, 2000, perf.DS10())
		if err != nil {
			b.Fatal(err)
		}
		hw = rep.PipeSeconds + rep.BusSeconds
	}
	b.ReportMetric(hw, "modelled-hw-s/step")
}
