package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"

	grape5 "repro"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/perf"
	"repro/internal/units"
)

// BENCH_treecode.json is the paper's evaluation, one section per
// function of its inputs: the DS10 host model and the GRAPE-5 timing
// model replayed over two fixed snapshots, the facade's forces against
// direct summation, and the paper's constants. Every field is a pure
// function of (model, N, seed, θ, n_g, K, ε), so the file is the same
// bytes on any machine and at any GOMAXPROCS, and
// TestRecordMatchesCommittedFile pins it. Wall-clock numbers belong to
// BENCHMARK.json.
const (
	recordSchemaVersion = 4
	recordSeed          = 1
	recordPlummerN      = 4096
	recordCosmoGrid     = 32 // the SCDM sphere at grid 32: N = 17,256
)

var (
	recordNcrits   = []int{125, 250, 500, 1000, 2000, 4000}
	recordBoards   = []int{1, 2, 4} // K; 1 leads, it is the speedups' reference
	accuracyThetas = []float64{0.3, 0.5, 0.75, 1.0, 1.25}
)

type record struct {
	SchemaVersion int              `json:"schema_version"`
	HostModel     string           `json:"host_model"`
	Constants     recordConstants  `json:"constants"`
	Accuracy      recordAccuracy   `json:"accuracy"`
	Sweeps        []recordSweep    `json:"sweeps"`
	Headline      recordHeadline   `json:"headline"`
	PaperTotals   recordGordonBell `json:"paper_totals"`
	Direct        []recordDirect   `json:"direct"`
}

// recordConstants is §1/§4's arithmetic: the hardware's peak, the
// system's price and the mass of one particle of the paper's sphere.
type recordConstants struct {
	PhysicalPipes     int     `json:"physical_pipes"`
	ClockHz           float64 `json:"clock_hz"`
	OpsPerInteraction int     `json:"ops_per_interaction"`
	PeakFlops         float64 `json:"peak_flops"`
	CostJYE           float64 `json:"cost_jye"`
	CostDollars       float64 `json:"cost_dollars"`
	ParticleMassMsun  float64 `json:"particle_mass_msun"`
}

func constants(cost perf.CostModel) recordConstants {
	return recordConstants{
		PhysicalPipes: g5.PhysicalPipes, ClockHz: g5.ChipClockHz,
		OpsPerInteraction: g5.OpsPerInteraction, PeakFlops: g5.PeakFlops,
		CostJYE: cost.TotalJYE(), CostDollars: cost.TotalDollars(),
		ParticleMassMsun: 1e10 * units.ParticleMass(units.OmegaM, units.LittleH, units.PaperRadiusMpc, units.PaperN),
	}
}

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

// point is p on K boards; one is p on one board.
func point(p, one perf.SweepPoint, k int) recordPoint {
	r, o := p.Report, one.Report
	return recordPoint{
		Ncrit: p.Ncrit, Groups: p.Groups, Interactions: p.Interactions,
		AvgList: p.AvgList, ListSum: p.ListSum, NodesVisited: p.NodesVisited,
		THostModel: r.HostSeconds, TBuildModel: r.HostBuildSeconds,
		TGrape: r.PipeSeconds, TComm: r.BusSeconds, TTotalModel: r.TotalSeconds(),
		TStepPipelinedModel: perf.ClusterBalance{
			HostSerial: o.HostBuildSeconds,
			HostWalk:   o.HostSeconds - o.HostBuildSeconds,
			Hardware:   o.PipeSeconds + o.BusSeconds,
		}.StepSeconds(k),
	}
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

// sweeps is §3: one snapshot's time balance over n_g, once per board
// count K (boards lead with 1).
func sweeps(model string, sys *nbody.System, seed uint64, theta float64, ncrits, boards []int, host perf.HostModel) ([]recordSweep, error) {
	serial, err := perf.NgSweep(sys, theta, ncrits, host)
	if err != nil {
		return nil, err
	}
	var out []recordSweep
	var bestK1 float64
	for _, k := range boards {
		sw := recordSweep{Model: model, N: sys.N(), Seed: seed, Theta: theta, Boards: k}
		points := perf.ClusterSweep(serial, k)
		sw.OptimalNcrit = perf.Optimum(points).Ncrit
		best := math.Inf(1)
		for i, p := range points {
			sw.Points = append(sw.Points, point(p, serial[i], k))
			best = math.Min(best, sw.Points[i].TStepPipelinedModel)
		}
		if k == 1 {
			bestK1 = best
		}
		sw.ModelSpeedupVsK1 = bestK1 / best
		out = append(out, sw)
	}
	return out, nil
}

// recordGordonBell is §5's accounting of a whole run.
type recordGordonBell struct {
	Interactions         float64 `json:"interactions"`
	OriginalInteractions float64 `json:"original_interactions"`
	ModifiedOverOriginal float64 `json:"modified_over_original"`
	WallSeconds          float64 `json:"wall_seconds"`
	RawGflops            float64 `json:"raw_gflops"`
	EffectiveGflops      float64 `json:"effective_gflops"`
	DollarsPerMflops     float64 `json:"dollars_per_mflops"`
}

func gordonBell(g perf.GordonBell) recordGordonBell {
	return recordGordonBell{
		Interactions: g.Interactions, OriginalInteractions: g.OriginalInteractions,
		ModifiedOverOriginal: g.Interactions / g.OriginalInteractions, WallSeconds: g.WallClockSeconds,
		RawGflops: g.RawFlops() / 1e9, EffectiveGflops: g.EffectiveFlops() / 1e9,
		DollarsPerMflops: g.PricePerMflops(),
	}
}

// recordHeadline is §5's headline: one snapshot's step at θ and n_g,
// the original algorithm's interaction count over the same particles,
// and the paper's 999-step run modelled from that step.
type recordHeadline struct {
	Source               string           `json:"source"`
	N                    int              `json:"n"`
	Theta                float64          `json:"theta"`
	Step                 recordPoint      `json:"step"`
	OriginalInteractions int64            `json:"original_interactions"`
	Steps                int              `json:"steps"`
	Run                  recordGordonBell `json:"run"`
}

func headline(source string, sys *nbody.System, theta float64, ncrit int, host perf.HostModel, cost perf.CostModel) (recordHeadline, error) {
	p, err := perf.NgSweep(sys, theta, []int{ncrit}, host)
	if err != nil {
		return recordHeadline{}, err
	}
	orig, err := core.New(core.Options{Theta: theta}, nil).CountOriginal(sys.Clone())
	if err != nil {
		return recordHeadline{}, err
	}
	h := recordHeadline{Source: source, N: sys.N(), Theta: theta, Step: point(p[0], p[0], 1),
		OriginalInteractions: orig, Steps: units.PaperSteps}
	h.Run = gordonBell(perf.RunModel{Steps: h.Steps, PerStep: p[0].Report, OriginalPerStep: orig,
		OpsPerInteraction: g5.OpsPerInteraction, Cost: cost}.GordonBell())
	return h, nil
}

// recordDirect is §1's motivation: one step by direct summation on the
// same hardware.
type recordDirect struct {
	Model        string  `json:"model"`
	N            int     `json:"n"`
	TDirectModel float64 `json:"t_direct_model"`
}

// direct prices each row (Model and N given) by direct summation.
func direct(rows []recordDirect, host perf.HostModel) ([]recordDirect, error) {
	for i := range rows {
		rep, err := perf.DirectStepModel(rows[i].N, host)
		if err != nil {
			return nil, err
		}
		rows[i].TDirectModel = rep.TotalSeconds()
	}
	return rows, nil
}

// runRecord evaluates every section at the record's inputs and writes
// BENCH_treecode.json to w.
func runRecord(w io.Writer) error {
	host, cost := perf.DS10(), perf.PaperCostModel()
	rec := record{SchemaVersion: recordSchemaVersion, HostModel: host.Name,
		Constants: constants(cost), PaperTotals: gordonBell(perf.PaperGordonBell())}
	var in accuracyInputs
	in.bind(flag.NewFlagSet("record", flag.ContinueOnError))
	var err error
	if rec.Accuracy, err = accuracy(in, accuracyThetas); err != nil {
		return err
	}
	plummer, err := grape5.LookupModel(grape5.ModelPlummer)
	if err != nil {
		return err
	}
	cosmo, err := loadSystem("", recordCosmoGrid, 0, recordSeed)
	if err != nil {
		return err
	}
	for _, s := range []struct {
		model string
		sys   *nbody.System
	}{{plummer.Name, plummer.New(recordPlummerN, recordSeed)}, {"cosmo", cosmo}} {
		sw, err := sweeps(s.model, s.sys, recordSeed, grape5.DefaultTheta, recordNcrits, recordBoards, host)
		if err != nil {
			return err
		}
		rec.Sweeps = append(rec.Sweeps, sw...)
	}
	if rec.Headline, err = headline(fresh(recordCosmoGrid, 0, recordSeed), cosmo, grape5.DefaultTheta, grape5.DefaultNcrit, host, cost); err != nil {
		return err
	}
	if rec.Direct, err = direct([]recordDirect{{Model: plummer.Name, N: recordPlummerN},
		{Model: "cosmo", N: cosmo.N()}, {Model: "paper", N: units.PaperN}}, host); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
