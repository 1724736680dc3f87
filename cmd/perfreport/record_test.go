package main

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	grape5 "repro"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/perf"
)

// TestRecordMatchesCommittedFile pins BENCH_treecode.json byte for
// byte: every field is a pure function of the record's constant grid,
// so any difference is a change to internal/perf, the g5 timing model,
// the tree walk or the snapshots. If the change is intended, regenerate
// with `go run ./cmd/perfreport record > BENCH_treecode.json` and
// review the diff like any golden.
func TestRecordMatchesCommittedFile(t *testing.T) {
	want, err := os.ReadFile("../../BENCH_treecode.json")
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(runOK(t, "record"))
	if bytes.Equal(got, want) {
		return
	}
	// The bytes differ, so below the sentinel some line does.
	gl := strings.Split(string(got)+"<end of file>", "\n")
	wl := strings.Split(string(want)+"<end of file>", "\n")
	i := 0
	for gl[i] == wl[i] {
		i++
	}
	t.Fatalf("BENCH_treecode.json line %d:\n  record:    %s\n  committed: %s", i+1, gl[i], wl[i])
}

// The smoke grid the bench-smoke CI job used to run live.
const liveN = 512

var liveNcrits = []int{32, 64, 128, 256}

func liveSim(t *testing.T, cfg grape5.Config) *grape5.Simulation {
	t.Helper()
	m, err := grape5.LookupModel(grape5.ModelPlummer)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Theta, cfg.G, cfg.Eps, cfg.DT = grape5.DefaultTheta, m.G, m.Eps, m.DT
	cfg.Engine = grape5.EngineGRAPE5
	sim, err := grape5.NewSimulation(m.New(liveN, recordSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sim.Close(); err != nil {
			t.Error(err)
		}
	})
	return sim
}

// TestLiveForceCallEqualsReplay is why the record needs no live run: a
// real force call on the emulated hardware walks the same groups and
// charges the same schedule as the replay that evaluates nothing.
// Unguarded and single-worker the two agree exactly — the traversal
// statistics, the integer hardware counters and, bit for bit, the
// modelled seconds.
func TestLiveForceCallEqualsReplay(t *testing.T) {
	host := perf.DS10()
	for _, ng := range liveNcrits {
		sim := liveSim(t, grape5.Config{Ncrit: ng, Workers: 1})
		snapshot := sim.Sys.Clone()
		if err := sim.Prime(); err != nil {
			t.Fatal(err)
		}

		hw, err := g5.NewSystem(g5.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.New(core.Options{Theta: grape5.DefaultTheta, Ncrit: ng, Workers: 1},
			perf.NewScheduleEngine(hw)).ComputeForces(snapshot.Clone())
		if err != nil {
			t.Fatal(err)
		}
		replay := hw.Counters()
		rep, _, err := perf.TreeStepModel(snapshot, grape5.DefaultTheta, ng, g5.DefaultConfig(), host)
		if err != nil {
			t.Fatal(err)
		}
		if want := perf.ModelStep(host, st, replay); rep != want {
			t.Errorf("n_g=%d: TreeStepModel %+v is not the schedule replay %+v", ng, rep, want)
		}

		ls := sim.LastStats
		if ls.Groups != st.Groups || ls.Interactions != st.Interactions ||
			ls.ListSum != st.ListSum || ls.NodesVisited != st.NodesVisited {
			t.Errorf("n_g=%d: live traversal %v, replay %v", ng, &ls, st)
		}
		// RangeClamps is the one counter the replay cannot have: it
		// never quantises a position.
		live := sim.HardwareCounters()
		live.RangeClamps = 0
		if live != replay {
			t.Errorf("n_g=%d: live counters %+v, replay %+v", ng, live, replay)
		}
		r := sim.LastReport
		if r.TGrape != replay.PipeSeconds || math.Abs(r.TComm-replay.BusSeconds) > 1e-12 {
			t.Errorf("n_g=%d: step report t_grape=%v t_comm=%v, replay pipe=%v bus=%v",
				ng, r.TGrape, r.TComm, replay.PipeSeconds, replay.BusSeconds)
		}
	}
}

// TestLiveOptimumWithinOnePointOfReplay keeps the one check the old
// bench validator made: guarded runs, on one board and on two shards,
// two steps into the evolution, put the optimal n_g within one sweep
// point of the replay's over the initial snapshot. The live hardware
// seconds are the shards' sum over K — which shard ran which group is
// scheduling, the benchmark's g5.cluster_shard_imbalance — and the sum
// itself does not depend on K: sharding moves whole groups.
func TestLiveOptimumWithinOnePointOfReplay(t *testing.T) {
	host := perf.DS10()
	m, err := grape5.LookupModel(grape5.ModelPlummer)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := perf.NgSweep(m.New(liveN, recordSeed), grape5.DefaultTheta, liveNcrits, host, g5.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var oneBoard []g5.Counters
	for _, k := range []int{1, 2} {
		live := make([]perf.SweepPoint, len(liveNcrits))
		for i, ng := range liveNcrits {
			sim := liveSim(t, grape5.Config{Ncrit: ng, Guard: true, Shards: k})
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			before := sim.HardwareCounters()
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			total := sim.HardwareCounters()
			step := g5.Counters{
				PipeSeconds: total.PipeSeconds - before.PipeSeconds,
				BusSeconds:  total.BusSeconds - before.BusSeconds,
			}
			live[i] = perf.SweepPoint{Ncrit: ng, Report: perf.ModelStep(host, &sim.LastStats, step)}

			total.PipeSeconds, total.BusSeconds = 0, 0 // float sums: order-dependent in the last bits
			if k == 1 {
				oneBoard = append(oneBoard, total)
			} else if total != oneBoard[i] {
				t.Errorf("n_g=%d: K=%d shards sum to %+v, one board counted %+v", ng, k, total, oneBoard[i])
			}
		}
		at := func(points []perf.SweepPoint) int {
			return slices.Index(liveNcrits, perf.Optimum(perf.ClusterSweep(points, k)).Ncrit)
		}
		if l, r := at(live), at(replay); l-r > 1 || r-l > 1 {
			t.Errorf("K=%d: live optimum n_g=%d, replay n_g=%d: more than one sweep point apart",
				k, liveNcrits[l], liveNcrits[r])
		}
	}
}
