package perf

import (
	"math"
	"testing"

	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/rng"
)

func TestDirectStepModelScalesQuadratically(t *testing.T) {
	host := DS10()
	small, err := DirectStepModel(10000, host)
	if err != nil {
		t.Fatal(err)
	}
	big, err := DirectStepModel(20000, host)
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
	n := 96000
	rep, err := DirectStepModel(n, DS10())
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(n) * float64(n) / g5.PeakInteractionsPerSecond
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
	const vp = g5.VirtualPipesPerBoard
	for _, n := range []int{1, vp, 1000, 9601} {
		rep, err := DirectStepModel(n, DS10())
		if err != nil {
			t.Fatal(err)
		}
		bytes := n*g5.BytesPerJ + n*g5.BytesPerI + n*g5.BytesPerForce*g5.Boards
		sweeps := (n + vp - 1) / vp
		want := float64(bytes)/g5.BusBandwidth + float64(sweeps)*g5.BusLatencyS
		if rel := math.Abs(rep.BusSeconds-want) / want; rel > 1e-12 {
			t.Errorf("n=%d: bus seconds %v, want %v (one j load, %d sweeps)", n, rep.BusSeconds, want, sweeps)
		}
	}
}

// TestCrossover: direct wins at small N, the treecode wins at large N,
// and there is a single crossover in between — the §1 motivation.
func TestCrossover(t *testing.T) {
	ns := []int{1000, 4000, 16000, 64000}
	ratio := make([]float64, len(ns)) // direct over tree seconds per step
	for i, n := range ns {
		d, err := DirectStepModel(n, DS10())
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := TreeStepModel(nbody.Plummer(n, 1, 1, 1, rng.New(uint64(n))), 0.75, 2000, DS10())
		if err != nil {
			t.Fatal(err)
		}
		ratio[i] = d.TotalSeconds() / tree.TotalSeconds()
	}
	first, last := ratio[0], ratio[len(ratio)-1]
	if first >= 1 {
		t.Errorf("at N=%d direct/tree = %v: direct should win", ns[0], first)
	}
	if last <= 1 {
		t.Errorf("at N=%d direct/tree = %v: the tree should win", ns[len(ns)-1], last)
	}
	// The direct/tree ratio must grow strongly across the range
	// (group-granularity effects make it non-monotone between adjacent
	// small-N samples, so compare the ends).
	if last < 4*first {
		t.Errorf("direct/tree ratio grew only %vx -> %vx across the N range", first, last)
	}
}

func TestDirectModelAtPaperN(t *testing.T) {
	// Direct summation at the paper's N would take ~27 minutes per step
	// on the GRAPE-5 — versus ~22-30 s for the treecode. This is the
	// whole point of the paper in one number.
	rep, err := DirectStepModel(2159038, DS10())
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
