package perf

import (
	"math"
	"testing"
)

func TestClusterBalanceStepSeconds(t *testing.T) {
	b := ClusterBalance{HostSerial: 0.003, HostWalk: 0.002, Hardware: 0.040}
	// K=1: hardware dominates the walk.
	if got, want := b.StepSeconds(1), 0.003+0.040; math.Abs(got-want) > 1e-15 {
		t.Errorf("T(1) = %v, want %v", got, want)
	}
	// K=10: hardware/K = 0.004 still above the walk.
	if got, want := b.StepSeconds(10), 0.003+0.004; math.Abs(got-want) > 1e-15 {
		t.Errorf("T(10) = %v, want %v", got, want)
	}
	// K=40: the walk is now the bottleneck; more boards do nothing.
	if got, want := b.StepSeconds(40), 0.003+0.002; math.Abs(got-want) > 1e-15 {
		t.Errorf("T(40) = %v, want %v", got, want)
	}
	if b.StepSeconds(80) != b.StepSeconds(40) {
		t.Error("step time kept shrinking past saturation")
	}
	// K<1 is clamped to 1.
	if b.StepSeconds(0) != b.StepSeconds(1) {
		t.Error("K=0 not clamped to 1")
	}
}

func TestClusterBalanceSpeedupMonotone(t *testing.T) {
	b := ClusterBalance{HostSerial: 0.003, HostWalk: 0.002, Hardware: 0.040}
	speedup := func(k int) float64 { return b.StepSeconds(1) / b.StepSeconds(k) }
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		s := speedup(k)
		if s < prev-1e-12 {
			t.Errorf("speedup decreased at K=%d: %v after %v", k, s, prev)
		}
		if s > float64(k)+1e-12 {
			t.Errorf("superlinear speedup %v at K=%d", s, k)
		}
		prev = s
	}
	// The model's asymptote: T(∞) = serial + walk.
	limit := (b.HostSerial + b.Hardware) / (b.HostSerial + b.HostWalk)
	if s := speedup(1 << 20); math.Abs(s-limit) > 1e-9 {
		t.Errorf("asymptotic speedup = %v, want %v", s, limit)
	}
}

// syntheticSweep builds an analytic-shaped n_g sweep: host time falls
// with n_g (shorter walks), hardware time rises (longer shared lists)
// — the §3 trade-off in miniature.
func syntheticSweep() []SweepPoint {
	ncrits := []int{125, 250, 500, 1000, 2000, 4000, 8000}
	pts := make([]SweepPoint, len(ncrits))
	for i, ng := range ncrits {
		f := float64(ng)
		pts[i] = SweepPoint{
			Ncrit: ng,
			Report: StepReport{
				HostSeconds: 8 / math.Sqrt(f), // walk cost shrinks with n_g
				PipeSeconds: 0.002 * math.Sqrt(f),
				BusSeconds:  0.0005 * math.Sqrt(f),
			},
		}
	}
	return pts
}

func TestClusterSweepScaling(t *testing.T) {
	pts := syntheticSweep()
	scaled := ClusterSweep(pts, 4)
	for i := range pts {
		if scaled[i].Ncrit != pts[i].Ncrit {
			t.Fatalf("point %d ncrit changed", i)
		}
		if math.Abs(scaled[i].Report.PipeSeconds-pts[i].Report.PipeSeconds/4) > 1e-15 {
			t.Errorf("pipe time not quartered at %d", i)
		}
		if math.Abs(scaled[i].Report.BusSeconds-pts[i].Report.BusSeconds/4) > 1e-15 {
			t.Errorf("bus time not quartered at %d", i)
		}
		if scaled[i].Report.HostSeconds != pts[i].Report.HostSeconds {
			t.Errorf("host time changed at %d", i)
		}
	}
	// The original slice must be untouched (ClusterSweep copies).
	if pts[0].Report.PipeSeconds != 0.002*math.Sqrt(125) {
		t.Error("ClusterSweep mutated its input")
	}
}

// TestOptimalNcritMonotoneInK: with hardware time divided by K, the
// optimum group size must move toward larger groups (or stay put) —
// never smaller. This is the cluster restatement of the paper's n_g
// optimum.
func TestOptimalNcritMonotoneInK(t *testing.T) {
	pts := syntheticSweep()
	optimum := func(k int) int { return Optimum(ClusterSweep(pts, k)).Ncrit }
	prev := 0
	for _, k := range []int{1, 2, 4, 8, 16} {
		ng := optimum(k)
		if ng < prev {
			t.Errorf("optimal n_g shrank with more boards: %d at K=%d after %d", ng, k, prev)
		}
		prev = ng
	}
	// The synthetic sweep is built so the optimum actually moves across
	// the K range — otherwise the monotonicity check is vacuous.
	if optimum(16) <= optimum(1) {
		t.Errorf("optimum did not move: K=1 %d, K=16 %d — sweep shape too flat",
			optimum(1), optimum(16))
	}
}
