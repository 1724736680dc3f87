package g5

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/vec"
)

// TestJMemChunkingPreservesForces: forcing multi-pass j processing
// (tiny particle memory) must not change the computed forces, only the
// pass accounting.
func TestJMemChunkingPreservesForces(t *testing.T) {
	small := paper
	small.jmem = 16 // 32 total; nj below is 100 -> 4 passes

	r := rng.New(77)
	ipos := make([]vec.V3, 10)
	jpos := make([]vec.V3, 100)
	jm := make([]float64, 100)
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
	}
	for j := range jpos {
		jpos[j] = vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
		jm[j] = 1 + r.Float64()
	}

	run := func(hw installation) ([]vec.V3, Counters) {
		sys, err := newSystem(hw, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetScale(-100, 100); err != nil {
			t.Fatal(err)
		}
		acc := make([]vec.V3, len(ipos))
		pot := make([]float64, len(ipos))
		if err := sys.Compute(ipos, jpos, jm, acc, pot); err != nil {
			t.Fatal(err)
		}
		return acc, sys.Counters()
	}
	accBig, cBig := run(paper)
	accSmall, cSmall := run(small)
	for i := range accBig {
		if accBig[i] != accSmall[i] {
			t.Fatalf("chunked forces differ at %d: %v vs %v", i, accBig[i], accSmall[i])
		}
	}
	if cBig.JPasses != 1 {
		t.Errorf("big memory passes = %d", cBig.JPasses)
	}
	if cSmall.JPasses != 4 {
		t.Errorf("small memory passes = %d, want 4", cSmall.JPasses)
	}
	// Pipeline time is pass-count invariant (the same j cycles stream
	// either way); it must never come out cheaper.
	if cSmall.PipeSeconds < cBig.PipeSeconds {
		t.Error("multi-pass processing came out faster than single-pass")
	}
}

// TestEnginePanicsOnHardwareFault: a call on a system with every board
// out of service must surface as a panic through the unguarded engine,
// not silent corruption — and the panic value must be the typed
// *HardwareError so recovery code can distinguish hardware faults from
// other panics without string matching.
func TestEnginePanicsOnHardwareFault(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	if err := sys.SetScale(-1, 1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < Boards; b++ {
		if err := sys.SetBoardExcluded(b, true); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(sys, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on hardware fault")
		}
		hw, ok := r.(*HardwareError)
		if !ok {
			t.Fatalf("panic value %T, want *HardwareError", r)
		}
		if hw.Transient {
			t.Errorf("dead device marked transient: %v", hw)
		}
	}()
	req := core.Request{
		IPos: []vec.V3{{X: 0.5}},
		Acc:  make([]vec.V3, 1),
		Pot:  make([]float64, 1),
	}
	req.J.Append(0, 0, 0, 1)
	e.Accumulate(&req)
}

// TestMorePipesFasterModel: doubling the board count must halve the
// pipeline time for a big batch (timing-model sanity).
func TestMorePipesFasterModel(t *testing.T) {
	one := paper
	one.boards = 1

	t1 := modelTime(t, one, 960, 10000)
	t2 := modelTime(t, paper, 960, 10000)
	ratio := t1 / t2
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("1-board/2-board pipe time ratio = %v, want ~2", ratio)
	}
}

func modelTime(t *testing.T, hw installation, ni, nj int) float64 {
	t.Helper()
	sys, err := newSystem(hw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-1, 1); err != nil {
		t.Fatal(err)
	}
	sys.ChargeOnly(ni, nj)
	return sys.Counters().PipeSeconds
}

// TestPaddingWaste: an i-batch of 1 occupies a full virtual-pipeline
// group — the hardware inefficiency that favours large n_g groups.
func TestPaddingWaste(t *testing.T) {
	t1 := modelTime(t, paper, 1, 10000)
	t96 := modelTime(t, paper, 96, 10000)
	if t1 != t96 {
		t.Errorf("1 i-particle (%v s) should cost the same pipe time as 96 (%v s)", t1, t96)
	}
	t97 := modelTime(t, paper, 97, 10000)
	if t97 <= t96 {
		t.Error("97 i-particles must start a second pass")
	}
}

// TestChargeOnlyIgnoresEmpty covers the guard, against non-empty
// charges that count ni×nj interactions.
func TestChargeOnlyIgnoresEmpty(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	sys.ChargeOnly(0, 100)
	sys.ChargeOnly(100, 0)
	sys.ChargeOnly(-1, -1)
	if c := sys.Counters(); c.Runs != 0 {
		t.Errorf("empty charges recorded: %+v", c)
	}
	sys.ChargeOnly(96, 1000)
	sys.ChargeOnly(10, 50)
	if c := sys.Counters(); c.Runs != 2 || c.Interactions != 96*1000+10*50 {
		t.Errorf("charges recorded runs=%d interactions=%d, want 2 and %d", c.Runs, c.Interactions, 96*1000+10*50)
	}
}

// TestComputeUnderFaultsAllocatesNothing: the fault plan, the
// in-service board list and the stuck factors live in scratch owned by
// the injector and the System, so a steady-state Compute allocates
// nothing with a fault model attached either.
func TestComputeUnderFaultsAllocatesNothing(t *testing.T) {
	q := randomRequest(rng.New(18), 20, 100)
	jpos, jm := aosSources(q)
	for _, fm := range []FaultModel{
		{Seed: 3, StuckPipeRate: 1},
		{Seed: 3, JMemBitFlipRate: 1},
		{Seed: 3, StuckPipeRate: 1, JMemBitFlipRate: 1, FailBoard: 2},
	} {
		cfg := DefaultConfig()
		f := fm
		cfg.Fault = &f
		sys := newGuardSystem(t, paper, cfg, 0.05)
		allocs := testing.AllocsPerRun(20, func() {
			if err := sys.Compute(q.IPos, jpos, jm, q.Acc, q.Pot); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%+v: Compute allocates %v times per call", fm, allocs)
		}
	}
}

// TestGuardAccumulateAllocatesNothing: the guard's staging and
// evaluation scratch — stuck factors included — belong to the batch in
// flight and are recycled through the engine's free list, so a
// steady-state Accumulate allocates nothing: healthy, and with a pipe
// stuck on every call. Each stuck batch then retries, bisects and falls
// back to the host; clearing the lost-batch streak after each one, as a
// healthy batch in between would, keeps the hardware in play, so every
// measured batch takes that whole path rather than the abandoned
// engine's straight host call.
func TestGuardAccumulateAllocatesNothing(t *testing.T) {
	q := randomRequest(rng.New(19), 20, 100)
	for _, fm := range []*FaultModel{nil, {Seed: 3, StuckPipeRate: 1}} {
		cfg := DefaultConfig()
		cfg.Fault = fm
		guard := NewGuardedEngine(newGuardSystem(t, paper, cfg, 0.05), 1, GuardPolicy{})
		batch := func() {
			guard.Accumulate(q)
			guard.consecFallback = 0
		}
		if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
			t.Errorf("fault model %+v: Accumulate allocates %v times per call", fm, allocs)
		}
		lost := int64(0)
		if fm != nil {
			lost = 21 // AllocsPerRun's warm-up call and its 20 runs
		}
		if rec := guard.Recovery(); rec.HostOnly || rec.FallbackBatches != lost {
			t.Errorf("fault model %+v: recovery %v, want %d batches lost to the host", fm, rec, lost)
		}
	}
}
