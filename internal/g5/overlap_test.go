package g5

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// The overlap conformance suite: the engines hold their mutex around
// the simulated device, not around the arithmetic, so G callers'
// batches evaluate at once. Nothing a run reports may depend on G —
// forces bit for bit, the integer counters exactly, the modelled
// seconds to summation order. It runs under -race in CI at -cpu 1,2,4;
// two in-flight batches sharing one evalScratch, or a finish that
// charges the board count of the moment, fail it.

var overlapCallers = []int{1, 2, 4, 8}

// overlapHW shrinks the particle memory so the 620-source batches
// stream in 2 passes on two boards and 4 on one: JPasses then shows
// which board set a call was charged on.
func overlapHW(boards int) installation {
	hw := paper
	hw.boards, hw.jmem = boards, 200
	return hw
}

// overlapInputs is the workload: 210 batches cycling through every
// (n_i, n_j) shape, every seventh with a field point outside the scale
// window (clamped, and counted).
func overlapInputs() []*core.Request {
	r := rng.New(77)
	var in []*core.Request
	for len(in) < 200 {
		for _, ni := range []int{1, 59, 96, 97, 300} {
			for _, nj := range []int{1, 8, 620} {
				q := randomRequest(r, ni, nj)
				if len(in)%7 == 0 {
					q.IPos[0].X = 120
				}
				in = append(in, q)
			}
		}
	}
	return in
}

// runOverlap feeds every batch through eng from g goroutines that claim
// the next index from a shared counter, each batch into fresh outputs.
func runOverlap(eng core.Engine, in []*core.Request, g int) []*core.Request {
	out := make([]*core.Request, len(in))
	for k, q := range in {
		out[k] = cloneRequest(q)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(out); k = int(next.Add(1)) - 1 {
				eng.Accumulate(out[k])
			}
		}()
	}
	wg.Wait()
	return out
}

// dirtyBatches counts the batches whose forces are not bitwise want's.
func dirtyBatches(got, want []*core.Request) (n int, first string) {
	for k := range want {
		for i := range want[k].Acc {
			if got[k].Acc[i] != want[k].Acc[i] || got[k].Pot[i] != want[k].Pot[i] {
				if n == 0 {
					first = fmt.Sprintf("batch %d i=%d: %v/%v, want %v/%v",
						k, i, got[k].Acc[i], got[k].Pot[i], want[k].Acc[i], want[k].Pot[i])
				}
				n++
				break
			}
		}
	}
	return n, first
}

func requireClean(t *testing.T, g int, got, want []*core.Request) {
	t.Helper()
	if n, first := dirtyBatches(got, want); n != 0 {
		t.Fatalf("G=%d: %d batches differ from the reference run; %s", g, n, first)
	}
}

// requireSameCounters: integer counters exact, modelled seconds to the
// order two callers reached finish in.
func requireSameCounters(t *testing.T, g int, got, want Counters) {
	t.Helper()
	gi, wi := got, want
	gi.PipeSeconds, gi.BusSeconds, wi.PipeSeconds, wi.BusSeconds = 0, 0, 0, 0
	if gi != wi {
		t.Fatalf("G=%d: counters %+v, want %+v", g, got, want)
	}
	if math.Abs(got.PipeSeconds-want.PipeSeconds) > 1e-9 || math.Abs(got.BusSeconds-want.BusSeconds) > 1e-9 {
		t.Fatalf("G=%d: modelled seconds pipe %v bus %v, want %v %v",
			g, got.PipeSeconds, got.BusSeconds, want.PipeSeconds, want.BusSeconds)
	}
}

// cleanGuardedRun is the single-caller, fault-free guarded reference.
func cleanGuardedRun(t *testing.T, in []*core.Request) []*core.Request {
	sys := newGuardSystem(t, overlapHW(2), Config{}, 0.05)
	return runOverlap(NewGuardedEngine(sys, 1.5, fastPolicy()), in, 1)
}

// TestOverlapFaultFree: a healthy device behind either engine returns
// the single caller's forces, counters and checks whatever G is.
func TestOverlapFaultFree(t *testing.T) {
	in := overlapInputs()
	for _, guarded := range []bool{false, true} {
		t.Run(fmt.Sprintf("guarded=%v", guarded), func(t *testing.T) {
			var want []*core.Request
			var wantCnt Counters
			for _, g := range overlapCallers {
				sys := newGuardSystem(t, overlapHW(2), Config{}, 0.05)
				var eng core.Engine = NewEngine(sys, 1.5)
				guard := NewGuardedEngine(sys, 1.5, fastPolicy())
				if guarded {
					eng = guard
				}
				got := runOverlap(eng, in, g)
				if g == 1 {
					want, wantCnt = got, sys.Counters()
					if wantCnt.RangeClamps == 0 || wantCnt.JPasses <= wantCnt.Runs {
						t.Fatalf("workload exercises no clamp or no second j pass: %+v", wantCnt)
					}
				}
				requireClean(t, g, got, want)
				requireSameCounters(t, g, sys.Counters(), wantCnt)
				if rec := guard.Recovery(); guarded && rec != (Recovery{Checks: int64(len(in))}) {
					t.Fatalf("G=%d: recovery %+v, want %d checks and nothing else", g, rec, len(in))
				}
			}
		})
	}
}

// TestOverlapFaultClasses turns each injected fault class on alone.
// Bus errors, timeouts and stuck pipes are always caught (a stuck slot
// drops half the probe's force), so every committed force is the clean
// run's and — one draw sequence, consumed one call at a time under the
// lock — the injector's totals are the single caller's. A flipped
// j-memory word is caught only when the corrupted particle's share of
// the probe force exceeds the tolerance (DESIGN.md §7), so there the
// claim is the ledger: every batch that is not clean is a drawn flip
// the check did not reject.
func TestOverlapFaultClasses(t *testing.T) {
	in := overlapInputs()
	clean := cleanGuardedRun(t, in)
	batches := int64(len(in))
	for _, class := range []struct {
		name string
		fm   FaultModel
	}{
		{"jmem-flip", FaultModel{Seed: 5, JMemBitFlipRate: 0.2}},
		{"stuck-pipe", FaultModel{Seed: 6, StuckPipeRate: 0.2}},
		{"bus-error", FaultModel{Seed: 7, BusErrorRate: 0.2}},
		{"transient", FaultModel{Seed: 8, TransientRate: 0.2}},
	} {
		t.Run(class.name, func(t *testing.T) {
			var wantStats FaultStats
			for _, g := range overlapCallers {
				fm := class.fm
				sys := newGuardSystem(t, overlapHW(2), Config{Fault: &fm}, 0.05)
				pol := fastPolicy()
				pol.MaxRetries = 12 // 0.2^13: no batch exhausts its retries
				guard := NewGuardedEngine(sys, 1.5, pol)
				got := runOverlap(guard, in, g)

				rec, fs, cnt := guard.Recovery(), sys.FaultStats(), sys.Counters()
				if rec.Checks != cnt.Runs || rec.Checks != batches+rec.CorruptResults {
					t.Errorf("G=%d: checks %d, runs %d, batches %d + rejected %d",
						g, rec.Checks, cnt.Runs, batches, rec.CorruptResults)
				}
				if rec.Retries != fs.BusErrors+fs.Transients {
					t.Errorf("G=%d: retries %d, injected failures %+v", g, rec.Retries, fs)
				}
				if rec.ExcludedBoards != 0 || rec.FallbackBatches != 0 || rec.HostOnly {
					t.Errorf("G=%d: recovery escalated: %v", g, rec)
				}
				if fs == (FaultStats{}) {
					t.Fatalf("G=%d: no fault drawn", g)
				}
				dirty, first := dirtyBatches(got, clean)
				if fm.JMemBitFlipRate > 0 {
					if missed := fs.JMemBitFlips - rec.CorruptResults; int64(dirty) > missed {
						t.Errorf("G=%d: %d batches not clean with %d flips drawn, %d rejected; %s",
							g, dirty, fs.JMemBitFlips, rec.CorruptResults, first)
					}
					continue
				}
				if dirty != 0 {
					t.Errorf("G=%d: %d batches differ from the clean run; %s", g, dirty, first)
				}
				if rec.CorruptResults != fs.StuckPipeCalls {
					t.Errorf("G=%d: rejected %d results, %d stuck calls drawn", g, rec.CorruptResults, fs.StuckPipeCalls)
				}
				if g == 1 {
					wantStats = fs
				}
				if fs != wantStats {
					t.Errorf("G=%d: fault stats %+v, single caller %+v", g, fs, wantStats)
				}
			}
		})
	}
}

// TestOverlapBoardDeath: board 2 dies for good at hardware call 41 with
// up to G batches planned on it in flight. One of them runs the
// recovery episode under the lock and excludes the board; the others
// fail their check, re-run on the survivor and commit clean forces.
func TestOverlapBoardDeath(t *testing.T) {
	in := overlapInputs()
	clean := cleanGuardedRun(t, in)
	for _, g := range overlapCallers {
		sys := newGuardSystem(t, overlapHW(2), Config{Fault: &FaultModel{FailBoard: 2, FailAfterRuns: 40}}, 0.05)
		guard := NewGuardedEngine(sys, 1.5, fastPolicy())
		requireClean(t, g, runOverlap(guard, in, g), clean)
		rec := guard.Recovery()
		if rec.ExcludedBoards != 1 || !sys.BoardExcluded(1) || sys.ActiveBoards() != 1 {
			t.Errorf("G=%d: want exactly board 2 excluded: %v, active %d", g, rec, sys.ActiveBoards())
		}
		if rec.HostOnly || rec.FallbackBatches != 0 {
			t.Errorf("G=%d: one dead board of two reached the host fallback: %v", g, rec)
		}
		if cnt := sys.Counters(); rec.Checks != cnt.Runs {
			t.Errorf("G=%d: checks %d, runs %d", g, rec.Checks, cnt.Runs)
		}
	}
}

// TestOverlapAllBoardsLost: the only board is dead from the first call
// and one lost batch abandons the hardware, while other batches planned
// on that board are still evaluating. They must be charged on the board
// they were planned on (none is left to divide by) and every batch must
// come back bitwise core.HostEngine's. The batches run largest first, so
// that the first one is still evaluating when the second begins.
func TestOverlapAllBoardsLost(t *testing.T) {
	in := overlapInputs()
	slices.Reverse(in)
	want := runOverlap(&core.HostEngine{G: 1.5, Eps: 0.05}, in, 1)
	for _, g := range overlapCallers {
		sys := newGuardSystem(t, overlapHW(1), Config{Fault: &FaultModel{FailBoard: 1}}, 0.05)
		pol := fastPolicy()
		pol.FallbackAfter = 1
		guard := NewGuardedEngine(sys, 1.5, pol)
		requireClean(t, g, runOverlap(guard, in, g), want)
		rec := guard.Recovery()
		if !rec.HostOnly || rec.FallbackBatches != int64(len(in)) || sys.ActiveBoards() != 0 {
			t.Errorf("G=%d: hardware not abandoned for every batch: %v, active %d", g, rec, sys.ActiveBoards())
		}
	}
}
