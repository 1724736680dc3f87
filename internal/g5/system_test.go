package g5

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/vec"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestConfigValidate: the fault model is all a Config holds, and all
// Validate judges — against the installation's two boards.
func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {Fault: &FaultModel{FailBoard: Boards, StuckPipeRate: 1}}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", cfg.Fault, err)
		}
	}
	for _, f := range []FaultModel{{FailBoard: Boards + 1}, {TransientRate: math.NaN()}} {
		if err := (Config{Fault: &f}).Validate(); err == nil {
			t.Errorf("%+v accepted", f)
		}
	}
}

// TestPeakAccounting is experiment E1: the installation's peak must be
// exactly the paper's numbers — 32 pipelines, 2.88e9 interactions/s,
// 109.44 Gflops.
func TestPeakAccounting(t *testing.T) {
	if PhysicalPipes != 32 {
		t.Errorf("physical pipes = %d, want 32", PhysicalPipes)
	}
	if PeakInteractionsPerSecond != 2.88e9 {
		t.Errorf("peak rate = %v, want 2.88e9", PeakInteractionsPerSecond)
	}
	if PeakFlops != 109.44e9 {
		t.Errorf("peak flops = %v, want 109.44e9 (paper §2)", PeakFlops)
	}
	// Virtual pipes per board: 8 chips × 2 pipes × 6 VMP = 96, and the
	// VMP factor must equal the chip/board clock ratio.
	if VirtualPipesPerBoard != 96 {
		t.Errorf("virtual pipes per board = %d, want 96", VirtualPipesPerBoard)
	}
	if ChipClockHz/BoardClockHz != VMP {
		t.Errorf("VMP %d != clock ratio %v", VMP, ChipClockHz/BoardClockHz)
	}
}

func TestComputeRequiresScale(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	err := sys.Compute([]vec.V3{{}}, []vec.V3{{X: 1}}, []float64{1},
		make([]vec.V3, 1), make([]float64, 1))
	if err == nil {
		t.Error("Compute before SetScale accepted")
	}
}

func TestSetScaleRejectsBadRange(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	if err := sys.SetScale(1, 1); err == nil {
		t.Error("empty range accepted")
	}
	if err := sys.SetScale(2, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if err := sys.SetScale(math.Inf(-1), math.Inf(1)); err == nil {
		t.Error("infinite range accepted")
	}
}

func TestComputeLengthValidation(t *testing.T) {
	sys := newTestSystem(t)
	i := []vec.V3{{}}
	j := []vec.V3{{X: 1}}
	if err := sys.Compute(i, j, []float64{1, 2}, make([]vec.V3, 1), make([]float64, 1)); err == nil {
		t.Error("jmass length mismatch accepted")
	}
	if err := sys.Compute(i, j, []float64{1}, make([]vec.V3, 2), make([]float64, 1)); err == nil {
		t.Error("acc length mismatch accepted")
	}
}

func TestComputeTwoBody(t *testing.T) {
	sys := newTestSystem(t)
	sys.SetEps(0)
	acc := make([]vec.V3, 1)
	pot := make([]float64, 1)
	err := sys.Compute(
		[]vec.V3{{X: -1}},
		[]vec.V3{{X: 1}}, []float64{1},
		acc, pot)
	if err != nil {
		t.Fatal(err)
	}
	// a = m/d² = 1/4, pot = -m/d = -0.5, to pipeline precision (~0.5%).
	if math.Abs(acc[0].X-0.25) > 0.25*0.01 {
		t.Errorf("acc = %v, want ~0.25", acc[0].X)
	}
	if math.Abs(pot[0]+0.5) > 0.5*0.01 {
		t.Errorf("pot = %v, want ~-0.5", pot[0])
	}
}

func TestComputeSelfGuard(t *testing.T) {
	sys := newTestSystem(t)
	sys.SetEps(0.1)
	acc := make([]vec.V3, 1)
	pot := make([]float64, 1)
	p := vec.V3{X: 3, Y: 4, Z: 5}
	if err := sys.Compute([]vec.V3{p}, []vec.V3{p}, []float64{7}, acc, pot); err != nil {
		t.Fatal(err)
	}
	if acc[0] != vec.Zero || pot[0] != 0 {
		t.Errorf("self interaction leaked: acc=%v pot=%v", acc[0], pot[0])
	}
}

// TestPairwiseErrorCalibration is experiment E2a: the emulated pipeline's
// pairwise force error must be ≈0.3 % RMS, the figure the paper quotes
// for the G5 chip.
func TestPairwiseErrorCalibration(t *testing.T) {
	sys := newTestSystem(t)
	sys.SetEps(0)
	r := rng.New(12345)
	const n = 20000
	var sum2 float64
	count := 0
	for k := 0; k < n; k++ {
		pi := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		pj := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		m := math.Exp(r.Uniform(-3, 3))
		acc := make([]vec.V3, 1)
		pot := make([]float64, 1)
		if err := sys.Compute([]vec.V3{pi}, []vec.V3{pj}, []float64{m}, acc, pot); err != nil {
			t.Fatal(err)
		}
		d := pj.Sub(pi)
		r2 := d.Norm2()
		if r2 < 1e-4 {
			continue
		}
		exact := d.Scale(m / (r2 * math.Sqrt(r2)))
		rel := acc[0].Sub(exact).Norm() / exact.Norm()
		sum2 += rel * rel
		count++
	}
	rms := math.Sqrt(sum2 / float64(count))
	t.Logf("pairwise RMS force error = %.4f%%", rms*100)
	if rms < 0.0015 || rms > 0.0045 {
		t.Errorf("pairwise RMS error = %.4f%%, want ≈0.3%% (band 0.15-0.45%%)", rms*100)
	}
}

// TestTimingModelHeadline checks the timing model against the paper's
// arithmetic: at the headline run's average group geometry
// (n_i = 2000 group members, n_j = 13431 list entries), the pipeline
// time for the whole step must come out near 10 s — the value implied
// by 2.9e10 interactions/step at 2.88e9 interactions/s.
func TestTimingModelHeadline(t *testing.T) {
	sys := newTestSystem(t)
	// Charge the per-step work synthetically: 1080 groups.
	const groups = 1080
	const ni, nj = 2000, 13431
	for g := 0; g < groups; g++ {
		sys.ChargeOnly(ni, nj)
	}
	c := sys.Counters()
	wantInteractions := int64(groups) * ni * nj
	if c.Interactions != wantInteractions {
		t.Errorf("interactions = %d, want %d", c.Interactions, wantInteractions)
	}
	// Ideal pipeline time = interactions / 2.88e9 ≈ 10.07 s; the model
	// adds ceil-padding (i groups of 96, j split across boards), so
	// expect slightly more but within 10%.
	ideal := float64(wantInteractions) / PeakInteractionsPerSecond
	if c.PipeSeconds < ideal {
		t.Errorf("pipe time %v below ideal %v — model lost work", c.PipeSeconds, ideal)
	}
	if c.PipeSeconds > ideal*1.10 {
		t.Errorf("pipe time %v more than 10%% over ideal %v", c.PipeSeconds, ideal)
	}
	// Bus traffic: nj*16 + ni*12 + ni*16*2 bytes per group.
	wantBytes := int64(groups) * (nj*16 + ni*12 + ni*16*2)
	if c.BytesTransferred != wantBytes {
		t.Errorf("bytes = %d, want %d", c.BytesTransferred, wantBytes)
	}
	t.Logf("per-step: pipe %.2f s, bus %.2f s (paper-implied pipe ~10.1 s)",
		c.PipeSeconds, c.BusSeconds)
}

func TestJMemoryPasses(t *testing.T) {
	hw := paper
	hw.jmem = 100 // tiny memory: 200 total
	sys, _ := newSystem(hw, Config{})
	sys.SetScale(-10, 10)
	sys.ChargeOnly(96, 500) // 500 j > 200 capacity -> 3 passes
	if sys.Counters().JPasses != 3 {
		t.Errorf("JPasses = %d, want 3", sys.Counters().JPasses)
	}
}

// TestClampCounting: a finite position outside the scale window is
// clamped and counted, one count a position.
func TestClampCounting(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	sys.SetScale(-1, 1)
	acc, pot := make([]vec.V3, 3), make([]float64, 3)
	if err := sys.Compute([]vec.V3{{X: 5}, {}, {Y: -1e300, Z: 7}}, []vec.V3{{X: 0.5}}, []float64{1}, acc, pot); err != nil {
		t.Fatal(err)
	}
	if n := sys.Counters().RangeClamps; n != 2 {
		t.Errorf("%d clamps counted, want 2", n)
	}
}

// refusal returns err as the permanent *HardwareError a refused call
// fails with, or fails the test.
func refusal(t *testing.T, how string, err error) *HardwareError {
	t.Helper()
	var hw *HardwareError
	if !errors.As(err, &hw) || hw.Transient {
		t.Fatalf("%s: got %v, want a permanent *HardwareError", how, err)
	}
	return hw
}

// TestNonFiniteInputRefused: a NaN mass, a NaN coordinate or an infinite
// coordinate is refused before a fault is drawn or a board is charged —
// by System.Compute, by a guarded engine, which panics with the error
// without retry or exclusion, and by a two-shard Cluster, whose Flush
// returns it. Every call would fail transiently if it drew its faults.
func TestNonFiniteInputRefused(t *testing.T) {
	always := Config{Fault: &FaultModel{Seed: 1, TransientRate: 1}}
	for _, c := range []struct {
		name string
		edit func(q *core.Request)
	}{
		{"NaN mass", func(q *core.Request) { q.J.M[3] = math.NaN() }},
		{"NaN i coordinate", func(q *core.Request) { q.IPos[2].Y = math.NaN() }},
		{"+Inf j coordinate", func(q *core.Request) { q.J.X[5] = math.Inf(1) }},
		{"-Inf i coordinate", func(q *core.Request) { q.IPos[0].Z = math.Inf(-1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := randomRequest(rng.New(23), 10, 40)
			c.edit(q)

			sys := newGuardSystem(t, paper, always, 0.05)
			jpos, jm := aosSources(q)
			refusal(t, "System.Compute", sys.Compute(q.IPos, jpos, jm, q.Acc, q.Pot))
			if sys.Counters() != (Counters{}) || sys.FaultStats() != (FaultStats{}) {
				t.Errorf("System.Compute: refused call charged %+v, drew %+v", sys.Counters(), sys.FaultStats())
			}

			gsys := newGuardSystem(t, paper, always, 0.05)
			guard := NewGuardedEngine(gsys, 1, GuardPolicy{})
			func() {
				defer func() {
					err, _ := recover().(error)
					refusal(t, "guarded engine", err)
				}()
				guard.Accumulate(cloneRequest(q))
			}()
			if rec := guard.Recovery(); rec != (Recovery{}) || gsys.ActiveBoards() != Boards {
				t.Errorf("guarded engine: recovery %v, %d boards in service", rec, gsys.ActiveBoards())
			}

			cl, err := NewCluster(ClusterConfig{Shards: 2, Board: always})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SetScale(-100, 100); err != nil {
				t.Fatal(err)
			}
			cl.Accumulate(cloneRequest(q))
			refusal(t, "cluster", cl.Flush())
			if rec := cl.Recovery(); rec != (Recovery{}) || cl.ActiveBoards() != 2*Boards {
				t.Errorf("cluster: recovery %v, %d boards in service", rec, cl.ActiveBoards())
			}
		})
	}
}

func TestEmptyBatchesAreFree(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Compute(nil, []vec.V3{{X: 1}}, []float64{1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Compute([]vec.V3{{}}, nil, nil, make([]vec.V3, 1), make([]float64, 1)); err != nil {
		t.Fatal(err)
	}
	if c := sys.Counters(); c.Runs != 0 || c.Interactions != 0 {
		t.Errorf("empty batches charged: %+v", c)
	}
}

// TestFinishChargesPlannedBoards: a call is charged on the board set
// begin planned it on. The engines release their lock between begin and
// finish, and another batch may end a recovery episode in between by
// excluding a board — or the last one, which used to divide by zero.
func TestFinishChargesPlannedBoards(t *testing.T) {
	hw := overlapHW(2) // 500 sources: 2 passes on two boards, 3 on one
	q := randomRequest(rng.New(7), 97, 500)
	jpos, jm := aosSources(q)

	fresh := newGuardSystem(t, hw, Config{}, 0.05)
	fresh.ChargeOnly(97, 500)
	want := fresh.Counters()

	for lost := 1; lost <= Boards; lost++ {
		sys := newGuardSystem(t, hw, Config{}, 0.05)
		var sc evalScratch
		a, err := sys.begin(q.IPos, jpos, jm, q.Acc, q.Pot, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < lost; b++ {
			if err := sys.SetBoardExcluded(b, true); err != nil {
				t.Fatal(err)
			}
		}
		sys.finish(&a)
		if got := sys.Counters(); got != want {
			t.Errorf("%d boards lost before finish: charged %+v, two-board charge %+v", lost, got, want)
		}
	}
}

// exact is the installation with every format budget at float64's 52
// bits, which leaves position quantisation as the only rounding: E2
// isolates the format error with it.
var exact = installation{boards: Boards, jmem: JMemPerBoard, posBits: 52, massBits: 52, r2Bits: 52, pipeBits: 52}

func TestFloat64ConfigIsExact(t *testing.T) {
	// With all precision knobs maxed, the pipeline must agree with
	// float64 arithmetic to rounding error — the paper's observation
	// that results were "practically the same" with 64-bit arithmetic,
	// exercised in reverse.
	sys, _ := newSystem(exact, Config{})
	sys.SetScale(-100, 100)
	sys.SetEps(0.1)

	r := rng.New(6)
	ni, nj := 10, 50
	ipos := make([]vec.V3, ni)
	jpos := make([]vec.V3, nj)
	jm := make([]float64, nj)
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
	}
	for j := range jpos {
		jpos[j] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		jm[j] = 1 + r.Float64()
	}
	acc := make([]vec.V3, ni)
	pot := make([]float64, ni)
	if err := sys.Compute(ipos, jpos, jm, acc, pot); err != nil {
		t.Fatal(err)
	}
	// Position quantisation at 52 bits over [-100,100) is ~2e-14
	// absolute; compare against float64 reference loosely.
	for i := range ipos {
		var want vec.V3
		var wpot float64
		for j := range jpos {
			d := jpos[j].Sub(ipos[i])
			r2 := d.Norm2() + 0.01
			inv := 1 / math.Sqrt(r2)
			want = want.MulAdd(jm[j]*inv/r2, d)
			wpot -= jm[j] * inv
		}
		if acc[i].Sub(want).Norm() > 1e-9*(1+want.Norm()) {
			t.Fatalf("max-precision pipeline differs from float64 at %d: %v vs %v", i, acc[i], want)
		}
		if math.Abs(pot[i]-wpot) > 1e-9*(1+math.Abs(wpot)) {
			t.Fatalf("potential differs at %d", i)
		}
	}
}

func TestSetEpsValidation(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.SetEps(0.25); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), -0.01, math.Inf(1), math.Inf(-1)} {
		if err := sys.SetEps(bad); err == nil {
			t.Errorf("SetEps(%v) accepted", bad)
		}
	}
	// A rejected value must leave the previous softening in place.
	if got := sys.Eps(); got != 0.25 {
		t.Errorf("eps after rejected sets = %v, want 0.25", got)
	}
	if err := sys.SetEps(0); err != nil {
		t.Errorf("SetEps(0) rejected: %v", err)
	}
}
