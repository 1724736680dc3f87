// Command bench records the repo's performance trajectory: a
// deterministic sweep over group size n_g and particle count N that
// reproduces the paper's §3 time-balance table from live simulation
// steps and writes the structured result to BENCH_treecode.json.
//
// For each sweep point it runs a real simulation (modified treecode,
// emulated GRAPE-5 behind the fault-tolerant guard) for a few steps and
// averages the per-step telemetry: measured host phase spans (Morton
// sort, tree build, group walk, guard overhead), simulated GRAPE
// pipeline time t_grape and host-interface time t_comm. The measured
// traversal statistics are also priced on the calibrated DS10 host
// model so the measured optimum n_g can be compared with the analytic
// prediction of internal/perf — the two must agree within one sweep
// point, which the JSON validator enforces.
//
//	bench                          # full sweep, writes BENCH_treecode.json
//	bench -smoke -out /tmp/b.json  # tiny CI sweep (2 steps, small N)
//	bench -validate BENCH_treecode.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	grape5 "repro"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/perf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		out      = flag.String("out", "BENCH_treecode.json", "output JSON path")
		smoke    = flag.Bool("smoke", false, "tiny sweep for CI: 2 steps, small N, Plummer only")
		validate = flag.String("validate", "", "validate an existing bench JSON against the schema and exit")
		steps    = flag.Int("steps", 3, "measured simulation steps per sweep point")
		theta    = flag.Float64("theta", grape5.DefaultTheta, "opening parameter")
		ncrit    = flag.String("ncrit", "125,250,500,1000,2000,4000", "comma-separated n_g sweep values")
		plumN    = flag.String("plummer-n", "4096", "comma-separated Plummer particle counts")
		grid     = flag.Int("cosmo-grid", 32, "cosmology IC grid per dimension (power of two; 0 disables the cosmo sweep)")
		seed     = flag.Uint64("seed", 1, "IC seed")
		guard    = flag.Bool("guard", true, "route force batches through the fault-tolerant offload path")
		boards   = flag.String("boards", "1", "comma-separated cluster shard counts K to sweep (K>1 drives the sharded multi-board engine; K=1 is always run first as the speedup reference)")
	)
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.ValidateBench(data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid (schema v%d)\n", *validate, obs.BenchSchemaVersion)
		return
	}

	label := "full"
	if *smoke {
		label = "smoke"
		*steps = 2
		*ncrit = "32,64,128,256"
		*plumN = "512"
		*grid = 0
	}
	ncrits := parseInts(*ncrit)
	plumNs := parseInts(*plumN)
	boardsList := parseInts(*boards)
	// The K=1 sweep is the speedup baseline; make sure it leads.
	if boardsList[0] != 1 {
		boardsList = append([]int{1}, boardsList...)
	}

	report := obs.BenchReport{
		SchemaVersion: obs.BenchSchemaVersion,
		Label:         label,
		HostModel:     perf.DS10().Name,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}

	// runFamily sweeps one IC family at every requested shard count,
	// computing the K>1 speedups against the family's K=1 sweep.
	runFamily := func(spec sweepSpec) {
		var ref *obs.BenchSweep
		for _, k := range boardsList {
			spec.shards = k
			sw, err := runSweep(spec, ncrits)
			if err != nil {
				log.Fatal(err)
			}
			if k == 1 {
				r := sw
				ref = &r
			} else {
				attachSpeedups(&sw, ref, k)
			}
			report.Sweeps = append(report.Sweeps, sw)
		}
	}

	plum, err := grape5.LookupModel(grape5.ModelPlummer)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range plumNs {
		runFamily(sweepSpec{
			model: plum.Name,
			n:     n,
			seed:  *seed,
			theta: *theta,
			steps: *steps,
			guard: *guard,
			make: func() (*nbody.System, float64, float64, float64) {
				return plum.New(n, *seed), plum.G, plum.Eps, plum.DT
			},
		})
	}

	if *grid > 0 {
		cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: *grid, Seed: *seed}, 999)
		if err != nil {
			log.Fatal(err)
		}
		runFamily(sweepSpec{
			model: "cosmo",
			n:     cs.Sys.N(),
			seed:  *seed,
			theta: *theta,
			steps: *steps,
			guard: *guard,
			make: func() (*nbody.System, float64, float64, float64) {
				c, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: *grid, Seed: *seed}, 999)
				if err != nil {
					log.Fatal(err)
				}
				return c.Sys, grape5.G, c.GridSpacing * c.AInit, c.Schedule.DT()
			},
		})
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := obs.ValidateBench(data); err != nil {
		log.Fatalf("self-check failed: %v", err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d sweeps, schema v%d)\n", *out, len(report.Sweeps), obs.BenchSchemaVersion)
}

// sweepSpec describes one n_g sweep: make returns fresh deterministic
// initial conditions plus the unit system (G, eps, dt) to run them in.
type sweepSpec struct {
	model  string
	n      int
	seed   uint64
	theta  float64
	steps  int
	guard  bool
	shards int // cluster shard count K; <=1 runs the single-system path
	make   func() (sys *nbody.System, g, eps, dt float64)
}

// runSweep measures every n_g point with live simulation steps, prints
// the time-balance table and computes the measured and analytic optima.
func runSweep(spec sweepSpec, ncrits []int) (obs.BenchSweep, error) {
	host := perf.DS10()
	sw := obs.BenchSweep{
		Model: spec.model, N: spec.n, Seed: spec.seed,
		Theta: spec.theta, Steps: spec.steps,
	}

	// Analytic §3 prediction over the initial snapshot.
	base, _, _, _ := spec.make()
	modelPts, err := perf.NgSweep(base, spec.theta, ncrits, host, g5.DefaultConfig())
	if err != nil {
		return sw, err
	}
	if spec.shards > 1 {
		sw.Boards = spec.shards
		// Sharding divides the hardware spans by K; the host side is
		// unchanged, so the analytic optimum shifts toward larger n_g.
		modelPts = perf.ClusterSweep(modelPts, spec.shards)
	}
	best := perf.Optimum(modelPts)
	if best == nil {
		return sw, fmt.Errorf("empty model sweep")
	}
	sw.ModelOptimalNcrit = best.Ncrit
	modelIdx := slices.Index(ncrits, best.Ncrit)

	fmt.Printf("== %s N=%d theta=%.2f boards=%d: %d measured steps per point ==\n",
		spec.model, spec.n, spec.theta, max(spec.shards, 1), spec.steps)
	fmt.Printf("%8s %8s %10s %12s %12s %10s %10s %12s\n",
		"n_g", "groups", "avg list", "t_host_wall", "t_host_model", "t_grape", "t_comm", "t_total_model")

	measuredIdx := -1
	for _, ng := range ncrits {
		p, err := measurePoint(spec, ng, host)
		if err != nil {
			return sw, err
		}
		fmt.Printf("%8d %8d %10.1f %11.4gs %11.4gs %9.4gs %9.4gs %11.4gs\n",
			p.Ncrit, p.Groups, p.AvgList, p.THostWall, p.THostModel,
			p.TGrape, p.TComm, p.TTotalModel)
		sw.Points = append(sw.Points, p)
		i := len(sw.Points) - 1
		if measuredIdx < 0 || p.TTotalModel < sw.Points[measuredIdx].TTotalModel {
			measuredIdx = i
		}
	}
	sw.MeasuredOptimalNcrit = sw.Points[measuredIdx].Ncrit
	apart := measuredIdx - modelIdx
	if apart < 0 {
		apart = -apart
	}
	sw.AgreeWithinOnePoint = apart <= 1
	fmt.Printf("optimal n_g: measured %d, analytic model %d (agree within one point: %v)\n\n",
		sw.MeasuredOptimalNcrit, sw.ModelOptimalNcrit, sw.AgreeWithinOnePoint)
	return sw, nil
}

// measurePoint runs one simulation at group bound ng for spec.steps
// steps and averages the per-step telemetry.
func measurePoint(spec sweepSpec, ng int, host perf.HostModel) (_ obs.BenchPoint, err error) {
	sys, g, eps, dt := spec.make()
	cfg := grape5.Config{
		Theta: spec.theta, Ncrit: ng, G: g, Eps: eps, DT: dt,
		Engine: grape5.EngineGRAPE5, Guard: spec.guard,
	}
	if spec.shards > 1 {
		cfg.Shards = spec.shards
	}
	sim, err := grape5.NewSimulation(sys, cfg)
	if err != nil {
		return obs.BenchPoint{}, err
	}
	// A Close failure means shard workers leaked mid-sweep; surface it
	// unless the measurement already failed for another reason.
	defer func() {
		if cerr := sim.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Prime outside the measurement: the paper's per-step numbers are
	// steady-state, not first-call.
	if err := sim.Prime(); err != nil {
		return obs.BenchPoint{}, err
	}

	p := obs.BenchPoint{Ncrit: ng}
	var interactions, hostModel float64
	for k := 0; k < spec.steps; k++ {
		if err := sim.Step(); err != nil {
			return obs.BenchPoint{}, err
		}
		r := sim.LastReport
		mod := perf.StepFromObs(host, &sim.LastStats, r)
		p.THostWall += r.THost
		p.TBuild += r.TBuild
		p.BytesAllocPerStep += float64(r.BytesAlloc)
		p.TGrape += r.TGrape
		p.TComm += r.TComm
		hostModel += mod.HostSeconds
		interactions += float64(r.Interactions)
		p.Phases.Add(r.Phases)
		p.Recoveries += r.Recoveries
	}
	k := float64(spec.steps)
	p.THostWall /= k
	p.TBuild /= k
	p.BytesAllocPerStep /= k
	p.TGrape /= k
	p.TComm /= k
	p.THostModel = hostModel / k
	p.TTotalModel = p.THostModel + p.TGrape + p.TComm
	p.Interactions = int64(interactions / k)
	p.AvgList = interactions / k / float64(sim.Sys.N())
	p.Groups = sim.LastStats.Groups
	p.Phases.Scale(1 / k)
	// Overlap-aware step time: with double-buffered batches the group
	// walk streams against the (critical-path) hardware span; only the
	// sort and build are serial. Phases are per-step means here.
	p.TStepPipelined = p.Phases.MortonSort + p.Phases.TreeBuild +
		math.Max(p.Phases.GroupWalk+p.Phases.Guard, p.TGrape+p.TComm)
	return p, nil
}

// bestPipelined returns the sweep's minimum pipelined step time.
func bestPipelined(sw *obs.BenchSweep) float64 {
	best := math.Inf(1)
	for _, p := range sw.Points {
		if p.TStepPipelined > 0 && p.TStepPipelined < best {
			best = p.TStepPipelined
		}
	}
	return best
}

// attachSpeedups fills the K>1 sweep's speedup fields from the matching
// K=1 reference: measured is the ratio of the best pipelined step times;
// predicted prices the K=1 sweep's measured phases on the internal/perf
// K-board time-balance model.
func attachSpeedups(sw, ref *obs.BenchSweep, k int) {
	if ref == nil {
		return
	}
	t1 := bestPipelined(ref)
	tk := bestPipelined(sw)
	if t1 > 0 && tk > 0 && !math.IsInf(t1, 1) && !math.IsInf(tk, 1) {
		sw.MeasuredSpeedupVsK1 = t1 / tk
	}
	pred := math.Inf(1)
	for _, p := range ref.Points {
		b := perf.ClusterBalance{
			HostSerial: p.Phases.MortonSort + p.Phases.TreeBuild,
			HostWalk:   p.Phases.GroupWalk + p.Phases.Guard,
			Hardware:   p.TGrape + p.TComm,
		}
		if t := b.StepSeconds(k); t < pred {
			pred = t
		}
	}
	if t1 > 0 && pred > 0 && !math.IsInf(pred, 1) {
		sw.PredictedSpeedupVsK1 = t1 / pred
	}
	fmt.Printf("K=%d speedup vs K=1 (pipelined): measured %.2fx, model predicts %.2fx\n\n",
		k, sw.MeasuredSpeedupVsK1, sw.PredictedSpeedupVsK1)
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			log.Fatalf("bad integer %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		log.Fatal("empty list")
	}
	return out
}
