package perf

import (
	"math"
	"testing"

	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/rng"
)

func TestDirectStepModelScalesQuadratically(t *testing.T) {
	cfg := g5.DefaultConfig()
	host := DS10()
	small, err := DirectStepModel(10000, cfg, host)
	if err != nil {
		t.Fatal(err)
	}
	big, err := DirectStepModel(20000, cfg, host)
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.PipeSeconds / small.PipeSeconds
	if math.Abs(ratio-4) > 0.2 {
		t.Errorf("pipe time N-scaling ratio = %v, want ~4", ratio)
	}
	if big.Interactions != int64(20000)*19999 {
		t.Errorf("interactions = %d", big.Interactions)
	}
}

func TestDirectStepModelPipeTime(t *testing.T) {
	// At n = 96k the pipelines are fully utilised: pipe time ≈ n²/2.88e9.
	cfg := g5.DefaultConfig()
	n := 96000
	rep, err := DirectStepModel(n, cfg, DS10())
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(n) * float64(n) / cfg.PeakInteractionsPerSecond()
	if rep.PipeSeconds < ideal || rep.PipeSeconds > ideal*1.02 {
		t.Errorf("pipe seconds = %v, ideal %v", rep.PipeSeconds, ideal)
	}
}

// TestDirectStepModelChargesJOnce: the direct-summation step loads the
// whole system into the particle memory once and sweeps i in
// virtual-pipeline chunks, so the bus carries n j-particles once, every
// i-particle and its per-board readback once, and one call latency per
// sweep.
func TestDirectStepModelChargesJOnce(t *testing.T) {
	cfg := g5.DefaultConfig()
	vp := cfg.VirtualPipesPerBoard()
	for _, n := range []int{1, vp, 1000, 9601} {
		rep, err := DirectStepModel(n, cfg, DS10())
		if err != nil {
			t.Fatal(err)
		}
		bytes := n*cfg.BytesPerJ + n*cfg.BytesPerI + n*cfg.BytesPerForce*cfg.Boards
		sweeps := (n + vp - 1) / vp
		want := float64(bytes)/cfg.BusBandwidth + float64(sweeps)*cfg.BusLatencyS
		if rel := math.Abs(rep.BusSeconds-want) / want; rel > 1e-12 {
			t.Errorf("n=%d: bus seconds %v, want %v (one j load, %d sweeps)", n, rep.BusSeconds, want, sweeps)
		}
	}
}

// TestCrossover: direct wins at small N, the treecode wins at large N,
// and there is a single crossover in between — the §1 motivation.
func TestCrossover(t *testing.T) {
	var systems []*nbody.System
	for _, n := range []int{1000, 4000, 16000, 64000} {
		systems = append(systems, nbody.Plummer(n, 1, 1, 1, rng.New(uint64(n))))
	}
	points, err := Crossover(systems, 0.75, 2000, g5.DefaultConfig(), DS10())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	first := points[0]
	last := points[len(points)-1]
	if first.DirectSeconds >= first.TreeSeconds {
		t.Errorf("at N=%d direct (%v s) should beat tree (%v s)",
			first.N, first.DirectSeconds, first.TreeSeconds)
	}
	if last.TreeSeconds >= last.DirectSeconds {
		t.Errorf("at N=%d tree (%v s) should beat direct (%v s)",
			last.N, last.TreeSeconds, last.DirectSeconds)
	}
	// The direct/tree ratio must grow strongly across the range
	// (group-granularity effects make it non-monotone between adjacent
	// small-N samples, so compare the ends).
	rFirst := first.DirectSeconds / first.TreeSeconds
	rLast := last.DirectSeconds / last.TreeSeconds
	if rLast < 4*rFirst {
		t.Errorf("direct/tree ratio grew only %vx -> %vx across the N range", rFirst, rLast)
	}
	t.Logf("crossover bracket: tree overtakes direct between N=%d and N=%d",
		first.N, last.N)
}

func TestDirectModelAtPaperN(t *testing.T) {
	// Direct summation at the paper's N would take ~27 minutes per step
	// on the GRAPE-5 — versus ~22-30 s for the treecode. This is the
	// whole point of the paper in one number.
	rep, err := DirectStepModel(2159038, g5.DefaultConfig(), DS10())
	if err != nil {
		t.Fatal(err)
	}
	perStepMinutes := rep.TotalSeconds() / 60
	if perStepMinutes < 20 || perStepMinutes > 40 {
		t.Errorf("direct at paper N = %.1f min/step, expected ~27", perStepMinutes)
	}
	t.Logf("direct summation at N=2,159,038: %.1f minutes per step (999 steps = %.0f days)",
		perStepMinutes, rep.TotalSeconds()*999/86400)
}
