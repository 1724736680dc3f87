package perf

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

func TestScheduleEngineCounts(t *testing.T) {
	sys, _ := g5.NewSystem(g5.DefaultConfig())
	e := NewScheduleEngine(sys)
	req := &core.Request{
		IPos: make([]vec.V3, 5),
		Acc:  make([]vec.V3, 5),
		Pot:  make([]float64, 5),
	}
	for j := 0; j < 7; j++ {
		req.J.Append(float64(j), 0, 0, 1)
	}
	e.Accumulate(req)
	if c := sys.Counters(); c.Interactions != 35 {
		t.Errorf("interactions = %d, want 35", c.Interactions)
	}
	// No force output: accelerations stay zero.
	for _, a := range req.Acc {
		if a != vec.Zero {
			t.Error("schedule engine wrote forces")
		}
	}
}

func TestScheduleEngineMatchesRealCounts(t *testing.T) {
	// The schedule engine must report the same interaction count as a
	// counting engine on the same traversal.
	s := nbody.Plummer(2000, 1, 1, 1, rng.New(5))
	ce := &core.CountEngine{}
	st, err := core.New(core.Options{Theta: 0.75, Ncrit: 128}, ce).ComputeForces(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := g5.NewSystem(g5.DefaultConfig())
	se := NewScheduleEngine(sys)
	if _, err := core.New(core.Options{Theta: 0.75, Ncrit: 128}, se).ComputeForces(s.Clone()); err != nil {
		t.Fatal(err)
	}
	if got := sys.Counters().Interactions; got != st.Interactions {
		t.Errorf("schedule count %d != count engine %d", got, st.Interactions)
	}
}

func TestNgSweepShape(t *testing.T) {
	// The §3 trade-off on a small snapshot: host time decreases with
	// n_g, GRAPE time increases, and the interactions are monotone.
	s := nbody.Plummer(8000, 1, 1, 1, rng.New(9))
	ncrits := []int{8, 64, 512, 4096}
	points, err := NgSweep(s, 0.75, ncrits, DS10())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ncrits) {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Interactions <= points[i-1].Interactions {
			t.Errorf("interactions not increasing: %d -> %d at ncrit %d",
				points[i-1].Interactions, points[i].Interactions, points[i].Ncrit)
		}
		if points[i].Groups >= points[i-1].Groups {
			t.Errorf("groups not decreasing at ncrit %d", points[i].Ncrit)
		}
	}
	// Pipeline time is NOT monotone: groups smaller than the 96 virtual
	// pipelines per board waste pipeline slots (ceil(n_i/96) padding), so
	// hardware time first falls as groups fill the pipelines, then rises
	// with the growing interaction count. Assert both regimes.
	if points[0].Report.PipeSeconds <= points[1].Report.PipeSeconds {
		t.Errorf("padding regime: pipe time should fall from ncrit=8 (%.4f s) to 64 (%.4f s)",
			points[0].Report.PipeSeconds, points[1].Report.PipeSeconds)
	}
	pipeLast, pipePrev := points[len(points)-1].Report.PipeSeconds, points[len(points)-2].Report.PipeSeconds
	if pipeLast <= pipePrev {
		t.Errorf("interaction regime: pipe time should rise from ncrit=512 (%.4f s) to 4096 (%.4f s)",
			pipePrev, pipeLast)
	}
	// Host walk share must shrink as n_g grows (that is the whole
	// point of the modified algorithm).
	first := points[0].Report.HostSeconds
	last := points[len(points)-1].Report.HostSeconds
	if last >= first {
		t.Errorf("host time did not drop with n_g: %v -> %v", first, last)
	}
}

// TestNgSweepIsAPureFunction: the replay behind BENCH_treecode.json
// must give the same bits however many CPUs run it. Counters add float
// seconds per group, so a walk on GOMAXPROCS workers sums them in
// arrival order and repeats differ in the last bits — enough to flip
// the optimum between the two top Plummer points, which at N = 4096 are
// the same 8 groups. (The record's own snapshot: nbody.Plummer with
// unit mass, radius and G, seed 1.)
func TestNgSweepIsAPureFunction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := nbody.Plummer(4096, 1, 1, 1, rng.New(1))
	ncrits := []int{125, 250, 500, 1000, 2000, 4000}
	sweep := func() []SweepPoint {
		points, err := NgSweep(s, 0.75, ncrits, DS10())
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	first := sweep()
	for rep := 1; rep < 4; rep++ {
		for i, p := range sweep() {
			if p != first[i] {
				t.Fatalf("repeat %d, n_g=%d: %+v, first sweep had %+v", rep, p.Ncrit, p, first[i])
			}
		}
	}
	a, b := first[4], first[5]
	b.Ncrit = a.Ncrit
	if a != b {
		t.Fatalf("n_g 2000 and 4000 are not the same schedule: %+v vs %+v", first[4], first[5])
	}
	if best := Optimum(first); best.Ncrit != 2000 {
		t.Errorf("Optimum broke the 2000/4000 tie toward n_g=%d, want the first", best.Ncrit)
	}
}

func TestOptimum(t *testing.T) {
	points := []SweepPoint{
		{Ncrit: 10, Report: StepReport{HostSeconds: 10}},
		{Ncrit: 100, Report: StepReport{HostSeconds: 3}},
		{Ncrit: 1000, Report: StepReport{HostSeconds: 5}},
	}
	best := Optimum(points)
	if best == nil || best.Ncrit != 100 {
		t.Errorf("optimum = %+v", best)
	}
	if Optimum(nil) != nil {
		t.Error("empty sweep should give nil")
	}
}

// TestFasterHostShiftsOptimumDown pins the direction of the n_g balance
// under a faster host term: cheaper opening tests make short lists
// affordable again, so the optimal group size cannot grow.
func TestFasterHostShiftsOptimumDown(t *testing.T) {
	s := nbody.Plummer(3000, 1, 1, 1, rng.New(4))
	ncrits := []int{50, 100, 200, 500, 1000, 2000}
	slow := DS10()
	fast := slow
	fast.VisitCoeff /= 4 // a faster walk
	ps, err := NgSweep(s.Clone(), 0.75, ncrits, slow)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := NgSweep(s.Clone(), 0.75, ncrits, fast)
	if err != nil {
		t.Fatal(err)
	}
	os_ := Optimum(ps).Ncrit
	of := Optimum(pf).Ncrit
	if of > os_ {
		t.Errorf("faster host moved optimum n_g up: %d -> %d", os_, of)
	}
	// The K-board restatement must hold for the faster host too: more
	// boards never shrink the optimal group size.
	if b := Optimum(ClusterSweep(pf, 4)).Ncrit; b < of {
		t.Errorf("optimal n_g decreasing in K: K=1 %d, K=4 %d", of, b)
	}
}
