package g5

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

func newTestEngine(t *testing.T, g float64) *GuardedEngine {
	t.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	return NewEngine(sys, g)
}

func TestEngineMatchesHostEngine(t *testing.T) {
	// The GRAPE engine must agree with the float64 host engine to
	// pipeline precision on a random batch.
	e := newTestEngine(t, 2.5)
	e.System().SetEps(0.05)
	host := &core.HostEngine{G: 2.5, Eps: 0.05}

	r := rng.New(8)
	ni, nj := 20, 200
	req := func() *core.Request {
		ipos := make([]vec.V3, ni)
		rq := &core.Request{IPos: ipos,
			Acc: make([]vec.V3, ni), Pot: make([]float64, ni)}
		for i := range ipos {
			ipos[i] = vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
		}
		for j := 0; j < nj; j++ {
			rq.J.Append(r.Uniform(-40, 40), r.Uniform(-40, 40), r.Uniform(-40, 40), 1+r.Float64())
		}
		rq.J.Pad()
		return rq
	}
	rq1 := req()
	rq2 := &core.Request{IPos: rq1.IPos, J: rq1.J,
		Acc: make([]vec.V3, ni), Pot: make([]float64, ni)}
	e.Accumulate(rq1)
	host.Accumulate(rq2)
	for i := range rq1.Acc {
		rel := rq1.Acc[i].Sub(rq2.Acc[i]).Norm() / rq2.Acc[i].Norm()
		if rel > 0.02 {
			t.Errorf("i=%d: GRAPE vs host relative difference %v > 2%%", i, rel)
		}
	}
}

func TestEngineAddsIntoOutputs(t *testing.T) {
	e := newTestEngine(t, 1)
	req := &core.Request{
		IPos: []vec.V3{{X: -1}},
		Acc:  []vec.V3{{X: 100}},
		Pot:  []float64{7},
	}
	req.J.Append(1, 0, 0, 1)
	e.Accumulate(req)
	if req.Acc[0].X <= 100 {
		t.Errorf("Accumulate must add, got %v", req.Acc[0].X)
	}
	if req.Pot[0] >= 7 {
		t.Errorf("potential must decrease from 7, got %v", req.Pot[0])
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	// Many goroutines hammering the engine must serialise safely and
	// produce correct counters.
	e := newTestEngine(t, 1)
	const calls = 50
	var wg sync.WaitGroup
	for k := 0; k < calls; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &core.Request{
				IPos: []vec.V3{{X: -1}, {X: -2}},
				Acc:  make([]vec.V3, 2),
				Pot:  make([]float64, 2),
			}
			req.J.Append(1, 0, 0, 1)
			req.J.Append(2, 0, 0, 1)
			req.J.Append(3, 0, 0, 1)
			e.Accumulate(req)
		}()
	}
	wg.Wait()
	c := e.System().Counters()
	if c.Runs != calls {
		t.Errorf("runs = %d, want %d", c.Runs, calls)
	}
	if c.Interactions != calls*2*3 {
		t.Errorf("interactions = %d, want %d", c.Interactions, calls*6)
	}
}

func TestEngineDefaultG(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	e := NewEngine(sys, 0)
	if e.G != 1 {
		t.Errorf("G = %v, want 1", e.G)
	}
}

// TestTreecodeOnGRAPE is the integration test of the full offload path:
// treecode forces evaluated on the emulated hardware must match direct
// float64 summation to the combined tree+pipeline error budget, and —
// the paper's §2 point — the TOTAL error must be dominated by the tree
// approximation, not the hardware.
func TestTreecodeOnGRAPE(t *testing.T) {
	s := nbody.Plummer(2000, 1, 1, 1, rng.New(3))
	ref := s.Clone()
	nbody.DirectForces(ref, 1, 0.01)
	refByID := make(map[int64]vec.V3)
	for i := range ref.Pos {
		refByID[ref.ID[i]] = ref.Acc[i]
	}

	bounds := s.Bounds()
	ext := bounds.MaxEdge()
	sys, _ := NewSystem(DefaultConfig())
	if err := sys.SetScale(bounds.Center().X-ext, bounds.Center().X+ext); err != nil {
		t.Fatal(err)
	}
	sys.SetEps(0.01)
	eng := NewEngine(sys, 1)

	// GRAPE run.
	sg := s.Clone()
	tcG := core.New(core.Options{Theta: 0.75, Ncrit: 128, G: 1, Eps: 0.01}, eng)
	if _, err := tcG.ComputeForces(sg); err != nil {
		t.Fatal(err)
	}
	// Host float64 run with the same tree parameters.
	sh := s.Clone()
	tcH := core.New(core.Options{Theta: 0.75, Ncrit: 128, G: 1, Eps: 0.01}, nil)
	if _, err := tcH.ComputeForces(sh); err != nil {
		t.Fatal(err)
	}

	rms := func(sys *nbody.System) float64 {
		var sum float64
		for i := range sys.Pos {
			want := refByID[sys.ID[i]]
			d := sys.Acc[i].Sub(want).Norm() / want.Norm()
			sum += d * d
		}
		return math.Sqrt(sum / float64(sys.N()))
	}
	errG := rms(sg)
	errH := rms(sh)
	t.Logf("total RMS force error: GRAPE %.4f%%, float64 host %.4f%%", errG*100, errH*100)
	if errG > 0.01 {
		t.Errorf("GRAPE total error %.4f%% > 1%%", errG*100)
	}
	// Paper §2: accuracy "practically the same" as 64-bit arithmetic,
	// because the tree approximation dominates. Allow the hardware to
	// add at most ~60% on top of the tree-only error.
	if errG > errH*1.6+1e-9 {
		t.Errorf("hardware degrades tree error too much: %.4f%% vs %.4f%%", errG*100, errH*100)
	}
	if c := sys.Counters(); c.RangeClamps != 0 {
		t.Errorf("unexpected range clamps: %d", c.RangeClamps)
	}
}
