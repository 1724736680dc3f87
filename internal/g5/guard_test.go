package g5

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/vec"
)

// randomRequest builds a reproducible batch within [-40, 40].
func randomRequest(r *rng.Source, ni, nj int) *core.Request {
	ipos := make([]vec.V3, ni)
	q := &core.Request{IPos: ipos,
		Acc: make([]vec.V3, ni), Pot: make([]float64, ni)}
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
	}
	for j := 0; j < nj; j++ {
		q.J.Append(r.Uniform(-40, 40), r.Uniform(-40, 40), r.Uniform(-40, 40), 1+r.Float64())
	}
	return q
}

// cloneRequest shares inputs but gives fresh outputs.
func cloneRequest(q *core.Request) *core.Request {
	return &core.Request{IPos: q.IPos, J: q.J,
		Acc: make([]vec.V3, len(q.IPos)), Pot: make([]float64, len(q.IPos))}
}

// aosSources gathers a request's SoA j-list into the AoS slices that
// System.Compute takes directly.
func aosSources(q *core.Request) ([]vec.V3, []float64) {
	jpos := make([]vec.V3, q.J.N)
	for j := range jpos {
		jpos[j] = vec.V3{X: q.J.X[j], Y: q.J.Y[j], Z: q.J.Z[j]}
	}
	return jpos, q.J.M[:q.J.N]
}

// newGuardSystem builds a System on hw with scale window [-100, 100)
// and softening eps.
func newGuardSystem(t *testing.T, hw installation, cfg Config, eps float64) *System {
	t.Helper()
	sys, err := newSystem(hw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetEps(eps); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGuardMatchesPlainEngine: on a healthy device the guarded path
// must return bitwise the same forces as the unguarded engine (the
// probe block rides along in the i-stream but each i-particle's
// arithmetic is independent), while running one acceptance check per
// batch.
func TestGuardMatchesPlainEngine(t *testing.T) {
	r := rng.New(11)
	plainSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
	guardSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
	plain := NewEngine(plainSys, 1.5)
	guard := NewGuardedEngine(guardSys, 1.5, GuardPolicy{})

	const batches = 5
	for k := 0; k < batches; k++ {
		q1 := randomRequest(r, 20, 300)
		q2 := cloneRequest(q1)
		plain.Accumulate(q1)
		guard.Accumulate(q2)
		for i := range q1.Acc {
			if q1.Acc[i] != q2.Acc[i] || q1.Pot[i] != q2.Pot[i] {
				t.Fatalf("batch %d i=%d: guarded %v/%v != plain %v/%v",
					k, i, q2.Acc[i], q2.Pot[i], q1.Acc[i], q1.Pot[i])
			}
		}
	}
	rec := guard.Recovery()
	if rec.Checks != batches {
		t.Errorf("checks = %d, want %d", rec.Checks, batches)
	}
	if rec.Retries != 0 || rec.CorruptResults != 0 || rec.FallbackBatches != 0 {
		t.Errorf("healthy device produced recovery activity: %v", rec)
	}
}

// TestGuardRetriesTransient: injected bus errors and timeouts must be
// retried away — the forces still match a fault-free device bitwise,
// and the retry counter records the activity.
func TestGuardRetriesTransient(t *testing.T) {
	r := rng.New(12)
	cleanSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
	faultCfg := DefaultConfig()
	faultCfg.Fault = &FaultModel{Seed: 5, BusErrorRate: 0.15, TransientRate: 0.15}
	faultSys := newGuardSystem(t, paper, faultCfg, 0.05)

	clean := NewGuardedEngine(cleanSys, 1, GuardPolicy{})
	guard := NewGuardedEngine(faultSys, 1, GuardPolicy{})

	for k := 0; k < 20; k++ {
		q1 := randomRequest(r, 20, 200)
		q2 := cloneRequest(q1)
		clean.Accumulate(q1)
		guard.Accumulate(q2)
		for i := range q1.Acc {
			if q1.Acc[i] != q2.Acc[i] {
				t.Fatalf("batch %d i=%d: retried forces differ", k, i)
			}
		}
	}
	rec := guard.Recovery()
	if rec.Retries == 0 {
		t.Error("no retries recorded at 30% transient rate")
	}
	if rec.FallbackBatches != 0 || rec.HostOnly {
		t.Errorf("transient faults escalated to fallback: %v", rec)
	}
	fs := faultSys.FaultStats()
	if fs.BusErrors+fs.Transients != rec.Retries {
		t.Errorf("injected %d+%d transient faults, guard retried %d",
			fs.BusErrors, fs.Transients, rec.Retries)
	}
}

// TestGuardExcludesDeadBoard: a board whose pipeline sticks mid-run
// must be diagnosed by bisection and taken out of service; the run
// continues on the surviving board with accurate forces.
func TestGuardExcludesDeadBoard(t *testing.T) {
	r := rng.New(13)
	cfg := DefaultConfig()
	cfg.Fault = &FaultModel{Seed: 7, FailBoard: 2, FailAfterRuns: 2, FailSlot: 5}
	sys := newGuardSystem(t, paper, cfg, 0.05)
	guard := NewGuardedEngine(sys, 1, GuardPolicy{})
	host := &core.HostEngine{G: 1, Eps: 0.05}

	for k := 0; k < 8; k++ {
		q := randomRequest(r, 20, 200)
		ref := cloneRequest(q)
		guard.Accumulate(q)
		host.Accumulate(ref)
		for i := range q.Acc {
			rel := q.Acc[i].Sub(ref.Acc[i]).Norm() / ref.Acc[i].Norm()
			if rel > 0.02 {
				t.Fatalf("batch %d i=%d: force error %.3f%% after board failure", k, i, rel*100)
			}
		}
	}
	rec := guard.Recovery()
	if rec.ExcludedBoards != 1 {
		t.Errorf("excluded boards = %d, want 1", rec.ExcludedBoards)
	}
	if sys.ActiveBoards() != 1 {
		t.Errorf("active boards = %d, want 1", sys.ActiveBoards())
	}
	if !sys.BoardExcluded(1) || sys.BoardExcluded(0) {
		t.Error("wrong board excluded")
	}
	if rec.FallbackBatches != 0 || rec.HostOnly {
		t.Errorf("single-board failure forced host fallback: %v", rec)
	}
	if rec.CorruptResults == 0 {
		t.Error("no corrupt results recorded for a stuck pipeline")
	}
}

// TestGuardChecksEverySlot: the emulator evaluates the replicated probe
// once, but every virtual-pipeline slot must still be checked with its
// own stuck factor. Whichever slot of board 1 is stuck, and wherever
// the batch length puts the probe block in the i-stream, the guard must
// reject the first result, exclude exactly that board, and commit what
// a healthy system running without it computes, bit for bit.
func TestGuardChecksEverySlot(t *testing.T) {
	vp := VirtualPipesPerBoard
	for _, ni := range []int{1, 59, 96, 97, 200} {
		q := randomRequest(rng.New(uint64(40+ni)), ni, 60)
		cleanSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
		if err := cleanSys.SetBoardExcluded(0, true); err != nil {
			t.Fatal(err)
		}
		want := cloneRequest(q)
		NewGuardedEngine(cleanSys, 1, GuardPolicy{}).Accumulate(want)

		for slot := 0; slot < vp; slot++ {
			cfg := DefaultConfig()
			cfg.Fault = &FaultModel{FailBoard: 1, FailSlot: slot}
			sys := newGuardSystem(t, paper, cfg, 0.05)
			guard := NewGuardedEngine(sys, 1, GuardPolicy{})
			got := cloneRequest(q)
			guard.Accumulate(got)

			rec := guard.Recovery()
			if rec.ExcludedBoards != 1 || !sys.BoardExcluded(0) || rec.CorruptResults < 1 ||
				rec.FallbackBatches != 0 {
				t.Fatalf("ni=%d slot=%d: stuck slot not diagnosed: %v", ni, slot, rec)
			}
			for i := range got.Acc {
				if got.Acc[i] != want.Acc[i] || got.Pot[i] != want.Pot[i] {
					t.Fatalf("ni=%d slot=%d i=%d: committed %v/%v, healthy one-board system %v/%v",
						ni, slot, i, got.Acc[i], got.Pot[i], want.Acc[i], want.Pot[i])
				}
			}
		}
	}
}

// TestBoardExclusionSlowsModel: after excluding one of two boards the
// timing model must charge ~2x the pipeline time for the same batch —
// the degraded-throughput scaling of TestMorePipesFasterModel.
func TestBoardExclusionSlowsModel(t *testing.T) {
	full := newGuardSystem(t, paper, DefaultConfig(), 0)
	full.ChargeOnly(960, 10000)
	t2 := full.Counters().PipeSeconds
	sys := newGuardSystem(t, paper, DefaultConfig(), 0)
	if err := sys.SetBoardExcluded(0, true); err != nil {
		t.Fatal(err)
	}
	sys.ChargeOnly(960, 10000)
	t1 := sys.Counters().PipeSeconds
	if ratio := t1 / t2; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("excluded-board pipe time ratio = %v, want ~2", ratio)
	}
	// Bounds checking and re-inclusion.
	if err := sys.SetBoardExcluded(2, true); err == nil {
		t.Error("out-of-range board accepted")
	}
	if err := sys.SetBoardExcluded(0, false); err != nil {
		t.Fatal(err)
	}
	if sys.ActiveBoards() != 2 {
		t.Errorf("active = %d after re-inclusion", sys.ActiveBoards())
	}
}

// TestGuardHostFallbackBitwise: with every board dead the guard must
// abandon the hardware and complete on the host engine — with forces
// bitwise identical to core.HostEngine, the acceptance bar for a
// fully-degraded run.
func TestGuardHostFallbackBitwise(t *testing.T) {
	r := rng.New(14)
	oneBoard := paper
	oneBoard.boards = 1
	sys := newGuardSystem(t, oneBoard, Config{Fault: &FaultModel{Seed: 9, FailBoard: 1}}, 0.05) // stuck from the first call
	guard := NewGuardedEngine(sys, 2, GuardPolicy{})
	host := &core.HostEngine{G: 2, Eps: 0.05}

	for k := 0; k < 5; k++ {
		q := randomRequest(r, 10, 100)
		ref := cloneRequest(q)
		guard.Accumulate(q)
		host.Accumulate(ref)
		for i := range q.Acc {
			if q.Acc[i] != ref.Acc[i] || q.Pot[i] != ref.Pot[i] {
				t.Fatalf("batch %d i=%d: fallback not bitwise identical to host", k, i)
			}
		}
	}
	rec := guard.Recovery()
	if !rec.HostOnly {
		t.Errorf("hardware not abandoned: %v", rec)
	}
	if rec.FallbackBatches != 5 {
		t.Errorf("fallback batches = %d, want 5", rec.FallbackBatches)
	}
	if rec.ExcludedBoards != 1 || sys.ActiveBoards() != 0 {
		t.Errorf("boards not all excluded: %v, active=%d", rec, sys.ActiveBoards())
	}
}

// TestFaultDeterminism: a fixed fault seed must reproduce the run
// exactly — same forces, same errors, same activity counters.
func TestFaultDeterminism(t *testing.T) {
	run := func() ([]vec.V3, []error, FaultStats) {
		cfg := DefaultConfig()
		cfg.Fault = &FaultModel{Seed: 21, JMemBitFlipRate: 0.3, StuckPipeRate: 0.3,
			BusErrorRate: 0.1, TransientRate: 0.1}
		sys := newGuardSystem(t, paper, cfg, 0.05)
		r := rng.New(15)
		var forces []vec.V3
		var errs []error
		for k := 0; k < 15; k++ {
			q := randomRequest(r, 8, 50)
			jpos, jm := aosSources(q)
			err := sys.Compute(q.IPos, jpos, jm, q.Acc, q.Pot)
			errs = append(errs, err)
			forces = append(forces, q.Acc...)
		}
		return forces, errs, sys.FaultStats()
	}
	f1, e1, s1 := run()
	f2, e2, s2 := run()
	if s1 != s2 {
		t.Fatalf("fault stats differ: %+v vs %+v", s1, s2)
	}
	if s1.JMemBitFlips == 0 || s1.StuckPipeCalls == 0 || s1.BusErrors+s1.Transients == 0 {
		t.Errorf("expected every fault class to fire: %+v", s1)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("forces differ at %d under the same seed", i)
		}
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("error sequence differs at call %d", i)
		}
		if e1[i] != nil && !IsTransient(e1[i]) {
			t.Errorf("injected failure not transient: %v", e1[i])
		}
	}
}

// TestFaultSilentCorruption: bit flips and stuck pipes must corrupt
// forces silently (no error) — the failure mode the guard exists for.
func TestFaultSilentCorruption(t *testing.T) {
	r := rng.New(16)
	q := randomRequest(r, 96, 50)
	jpos, jm := aosSources(q)
	clean := newGuardSystem(t, paper, DefaultConfig(), 0.05)
	if err := clean.Compute(q.IPos, jpos, jm, q.Acc, q.Pot); err != nil {
		t.Fatal(err)
	}
	for _, fm := range []FaultModel{
		{Seed: 3, JMemBitFlipRate: 1},
		{Seed: 3, StuckPipeRate: 1},
	} {
		cfg := DefaultConfig()
		f := fm
		cfg.Fault = &f
		sys := newGuardSystem(t, paper, cfg, 0.05)
		qq := cloneRequest(q)
		if err := sys.Compute(qq.IPos, jpos, jm, qq.Acc, qq.Pot); err != nil {
			t.Fatalf("%+v: silent fault returned error %v", fm, err)
		}
		same := true
		for i := range qq.Acc {
			if qq.Acc[i] != q.Acc[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%+v: forces unchanged — fault not injected", fm)
		}
		for i := range qq.Acc {
			if !qq.Acc[i].IsFinite() {
				t.Fatalf("%+v: corrupted force non-finite at %d", fm, i)
			}
		}
	}
}

// TestGuardConcurrent: concurrent Accumulate calls through a guarded,
// fault-injecting engine must be race-free and keep coherent counters
// (exercised under -race in CI).
func TestGuardConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = &FaultModel{Seed: 31, TransientRate: 0.2}
	sys := newGuardSystem(t, paper, cfg, 0.05)
	guard := NewGuardedEngine(sys, 1, GuardPolicy{})

	const calls = 32
	var wg sync.WaitGroup
	for k := 0; k < calls; k++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			q := randomRequest(rng.New(seed), 4, 40)
			guard.Accumulate(q)
		}(uint64(100 + k))
	}
	wg.Wait()
	rec := guard.Recovery()
	if rec.Checks < calls {
		t.Errorf("checks = %d, want >= %d", rec.Checks, calls)
	}
	if rec.FallbackBatches != 0 {
		t.Errorf("unexpected fallback under transient-only faults: %v", rec)
	}
}

// TestConfigValidatesFaultModel: bad fault configurations must be
// rejected at NewSystem time.
func TestConfigValidatesFaultModel(t *testing.T) {
	for _, fm := range []FaultModel{
		{JMemBitFlipRate: -0.1},
		{StuckPipeRate: 1.5},
		{BusErrorRate: 2},
		{FailBoard: 3}, // only 2 boards
		{FailBoard: -1},
		{FailBoard: 1, FailAfterRuns: -1},
		{FailBoard: 1, FailSlot: -2},
	} {
		f := fm
		if _, err := NewSystem(Config{Fault: &f}); err == nil {
			t.Errorf("invalid fault model accepted: %+v", fm)
		}
	}
	if _, err := NewSystem(Config{Fault: &FaultModel{}}); err != nil { // an inert model is fine
		t.Errorf("inert fault model rejected: %v", err)
	}
}
