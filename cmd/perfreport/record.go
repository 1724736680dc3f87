package main

import (
	"encoding/json"
	"io"
	"math"

	grape5 "repro"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/perf"
)

// BENCH_treecode.json is the §3 time balance on the modelled axis: the
// DS10 host model and the GRAPE-5 timing model, replayed over two fixed
// snapshots. A field is in the record iff it is a pure function of
// (model, N, seed, θ, n_g, K), so the file is regenerated byte for byte
// on any machine and TestRecordMatchesCommittedFile pins it. Wall-clock,
// allocation and measured K-board numbers belong to BENCHMARK.json.
const (
	recordSchemaVersion = 3
	recordSeed          = 1
	recordPlummerN      = 4096
	recordCosmoGrid     = 32 // the SCDM sphere at grid 32: N = 17,256
)

var (
	recordNcrits = []int{125, 250, 500, 1000, 2000, 4000}
	recordBoards = []int{1, 2, 4} // K; 1 leads, it is the speedups' reference
)

type recordPoint struct {
	Ncrit        int     `json:"ncrit"`
	Groups       int     `json:"groups"`
	Interactions int64   `json:"interactions"`
	AvgList      float64 `json:"avg_list"`
	ListSum      int64   `json:"list_sum"`
	NodesVisited int64   `json:"nodes_visited"`
	// THostModel is the DS10 model's host seconds per step, TBuildModel
	// its tree-construction share.
	THostModel  float64 `json:"t_host_model"`
	TBuildModel float64 `json:"t_build_model"`
	// TGrape and TComm are the timing model's pipeline and bus seconds
	// per step, divided over the sweep's K boards.
	TGrape float64 `json:"t_grape"`
	TComm  float64 `json:"t_comm"`
	// TTotalModel is the paper's serial step, host + t_grape + t_comm;
	// TStepPipelinedModel the overlapped one of perf.ClusterBalance,
	// build + max(host − build, hardware/K).
	TTotalModel         float64 `json:"t_total_model"`
	TStepPipelinedModel float64 `json:"t_step_pipelined_model"`
}

type recordSweep struct {
	Model  string        `json:"model"`
	N      int           `json:"n"`
	Seed   uint64        `json:"seed"`
	Theta  float64       `json:"theta"`
	Boards int           `json:"boards"`
	Points []recordPoint `json:"points"`
	// OptimalNcrit minimises t_total_model over the points.
	OptimalNcrit int `json:"optimal_ncrit"`
	// ModelSpeedupVsK1 is the K = 1 sweep's smallest pipelined step over
	// this sweep's (1 on the K = 1 sweep itself).
	ModelSpeedupVsK1 float64 `json:"model_speedup_vs_k1"`
}

type record struct {
	SchemaVersion int           `json:"schema_version"`
	HostModel     string        `json:"host_model"`
	Sweeps        []recordSweep `json:"sweeps"`
}

// runRecord writes BENCH_treecode.json to w.
func runRecord(w io.Writer) error {
	plummer, err := grape5.LookupModel(grape5.ModelPlummer)
	if err != nil {
		return err
	}
	cosmo, err := loadSystem("", recordCosmoGrid, 0, recordSeed)
	if err != nil {
		return err
	}
	host := perf.DS10()
	rec := record{SchemaVersion: recordSchemaVersion, HostModel: host.Name}
	for _, snap := range []struct {
		model string
		sys   *nbody.System
	}{
		{plummer.Name, plummer.New(recordPlummerN, recordSeed)},
		{"cosmo", cosmo},
	} {
		serial, err := perf.NgSweep(snap.sys, grape5.DefaultTheta, recordNcrits, host, g5.DefaultConfig())
		if err != nil {
			return err
		}
		var bestK1 float64
		for _, k := range recordBoards {
			sw := recordSweep{
				Model: snap.model, N: snap.sys.N(), Seed: recordSeed,
				Theta: grape5.DefaultTheta, Boards: k,
			}
			points := perf.ClusterSweep(serial, k)
			sw.OptimalNcrit = perf.Optimum(points).Ncrit
			best := math.Inf(1)
			for i, p := range points {
				r, one := p.Report, serial[i].Report
				pipelined := perf.ClusterBalance{
					HostSerial: one.HostBuildSeconds,
					HostWalk:   one.HostSeconds - one.HostBuildSeconds,
					Hardware:   one.PipeSeconds + one.BusSeconds,
				}.StepSeconds(k)
				best = math.Min(best, pipelined)
				sw.Points = append(sw.Points, recordPoint{
					Ncrit: p.Ncrit, Groups: p.Groups, Interactions: p.Interactions,
					AvgList: p.AvgList, ListSum: p.ListSum, NodesVisited: p.NodesVisited,
					THostModel: r.HostSeconds, TBuildModel: r.HostBuildSeconds,
					TGrape: r.PipeSeconds, TComm: r.BusSeconds,
					TTotalModel:         r.TotalSeconds(),
					TStepPipelinedModel: pipelined,
				})
			}
			if k == 1 {
				bestK1 = best
			}
			sw.ModelSpeedupVsK1 = bestK1 / best
			rec.Sweeps = append(rec.Sweeps, sw)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
