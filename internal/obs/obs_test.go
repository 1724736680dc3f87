package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseAndCounterNames(t *testing.T) {
	if got := PhaseMortonSort.String(); got != "morton_sort" {
		t.Errorf("PhaseMortonSort = %q", got)
	}
	if got := PhaseReadback.String(); got != "readback" {
		t.Errorf("PhaseReadback = %q", got)
	}
	if got := Phase(99).String(); got != "unknown" {
		t.Errorf("out-of-range phase = %q", got)
	}
}

func TestObserverNilSafe(t *testing.T) {
	// All methods must be no-ops on a nil observer so call sites can
	// stay unconditional.
	var o *Observer
	o.AddSeconds(PhaseTreeBuild, 1)
	o.Add(CntInteractions, 5)
	tm := o.Start(PhaseGroupWalk)
	tm.Stop()
	o.Reset()
	if o.Seconds(PhaseTreeBuild) != 0 || o.Count(CntInteractions) != 0 {
		t.Error("nil observer reported nonzero totals")
	}
	r := o.Snapshot(3, time.Second)
	if r.Step != 3 || r.THost != 0 || r.Interactions != 0 {
		t.Errorf("nil snapshot = %+v", r)
	}
}

func TestObserverRejectsBadDurations(t *testing.T) {
	o := NewObserver()
	o.AddSeconds(PhasePipeline, -1)
	o.AddSeconds(PhasePipeline, math.NaN())
	o.AddSeconds(PhasePipeline, math.Inf(1))
	if s := o.Seconds(PhasePipeline); s != 0 {
		t.Errorf("bad durations accumulated: %v", s)
	}
}

func TestSnapshotDecomposition(t *testing.T) {
	o := NewObserver()
	o.AddSeconds(PhaseMortonSort, 0.1)
	o.AddSeconds(PhaseTreeBuild, 0.2)
	o.AddSeconds(PhaseGroupWalk, 0.3)
	o.AddSeconds(PhaseGuard, 0.05)
	o.AddSeconds(PhaseForceEval, 1.0) // excluded from THost: emulated hardware
	o.AddSeconds(PhasePipeline, 0.4)
	o.AddSeconds(PhaseJTransfer, 0.01)
	o.AddSeconds(PhaseITransfer, 0.02)
	o.AddSeconds(PhaseReadback, 0.03)
	o.Add(CntInteractions, 1000)
	o.Add(CntGroups, 2)

	r := o.Snapshot(7, 2*time.Second)
	if r.Step != 7 || r.WallSeconds != 2 {
		t.Errorf("step/wall = %d/%v", r.Step, r.WallSeconds)
	}
	if math.Abs(r.THost-0.65) > 1e-12 {
		t.Errorf("THost = %v, want 0.65", r.THost)
	}
	if math.Abs(r.TGrape-0.4) > 1e-12 {
		t.Errorf("TGrape = %v, want 0.4", r.TGrape)
	}
	if math.Abs(r.TComm-0.06) > 1e-12 {
		t.Errorf("TComm = %v, want 0.06", r.TComm)
	}
	if r.Interactions != 1000 || r.Groups != 2 {
		t.Errorf("counters = %+v", r)
	}
	if s := r.String(); !strings.Contains(s, "step 7") {
		t.Errorf("human report missing step: %q", s)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestResetClears(t *testing.T) {
	o := NewObserver()
	o.AddSeconds(PhaseTreeBuild, 1)
	o.Add(CntSubsteps, 99)
	o.Reset()
	if o.Seconds(PhaseTreeBuild) != 0 || o.Count(CntSubsteps) != 0 {
		t.Error("Reset did not clear")
	}
}

// TestObserverConcurrentUpdates drives the exact access pattern of the
// parallel group walk — many workers folding phase spans and counters
// into one shared observer — and must pass under -race. The CAS loop in
// AddSeconds makes float accumulation exact for these power-of-two
// increments, so the totals are checked exactly.
func TestObserverConcurrentUpdates(t *testing.T) {
	o := NewObserver()
	const workers = 16
	const perWorker = 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				o.AddSeconds(PhaseGroupWalk, 0.5)
				o.AddSeconds(PhaseForceEval, 0.25)
				o.Add(CntInteractions, 3)
				o.Add(CntGroups, 1)
				tm := o.Start(PhaseGuard)
				tm.Stop()
			}
		}()
	}
	// A concurrent reader: snapshots must be safe to take mid-update.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r := o.Snapshot(i, time.Millisecond)
			if r.Interactions < 0 || r.THost < 0 {
				t.Errorf("inconsistent mid-flight snapshot: %+v", r)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := o.Seconds(PhaseGroupWalk); got != workers*perWorker*0.5 {
		t.Errorf("group walk seconds = %v, want %v", got, workers*perWorker*0.5)
	}
	if got := o.Seconds(PhaseForceEval); got != workers*perWorker*0.25 {
		t.Errorf("force eval seconds = %v, want %v", got, workers*perWorker*0.25)
	}
	if got := o.Count(CntInteractions); got != workers*perWorker*3 {
		t.Errorf("interactions = %d, want %d", got, workers*perWorker*3)
	}
	if got := o.Count(CntGroups); got != workers*perWorker {
		t.Errorf("groups = %d, want %d", got, workers*perWorker)
	}
	if got := o.Seconds(PhaseGuard); got < 0 {
		t.Errorf("guard seconds negative: %v", got)
	}
}
