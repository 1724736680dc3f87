package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/g5"
	"repro/internal/nbody"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, so one slow page-in does not decide it.
const setupReps = 5

// runOpts are the arguments of one benchmark run.
type runOpts struct {
	seed     uint64
	seconds  float64
	smoke    bool
	traceOut string
	// scratch is this run's private directory inside the checkout.
	scratch string
}

// runResult is what a run reports on its last line of output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// prefixSnapshot is the state of a run at its workload's countSteps-th
// step: everything in it depends on (workload, seed) only, so two
// commits — or the facade and the assembled pipeline — compare exactly.
type prefixSnapshot struct {
	checksum string
	forceErr float64
	hw       g5.Counters
	critHW   float64
}

func (s prefixSnapshot) print(label string) {
	fmt.Printf("  %s: checksum=%s force_err_rms=%.9g hw_interactions=%d hw_pipe_s=%.17g hw_bus_s=%.17g hw_bytes=%d hw_runs=%d hw_j_passes=%d hw_clamps=%d hw_critical_s=%.17g\n",
		label, s.checksum, s.forceErr, s.hw.Interactions, s.hw.PipeSeconds, s.hw.BusSeconds,
		s.hw.BytesTransferred, s.hw.Runs, s.hw.JPasses, s.hw.RangeClamps, s.critHW)
}

// stepper is what the measuring loop needs from a simulation. The facade
// and the assembled pipeline both provide it, so both are stepped,
// snapshotted and checkpointed by the same code.
type stepper interface {
	step() error
	steps() int
	save(*ckpt.Store) (ckpt.SaveInfo, error)
	system() *nbody.System
	hwCounters() g5.Counters
	critHW() float64
}

// facade adapts the public grape5.Simulation to stepper.
type facade struct{ *grape5.Simulation }

func (f facade) step() error                                { return f.Step() }
func (f facade) steps() int                                 { return f.Steps() }
func (f facade) save(st *ckpt.Store) (ckpt.SaveInfo, error) { return f.Checkpoint(st) }
func (f facade) system() *nbody.System                      { return f.Sys }
func (f facade) hwCounters() g5.Counters                    { return f.HardwareCounters() }

// critHW is the cluster's critical-path simulated time, 0 off-cluster.
func (f facade) critHW() float64 {
	if cl := f.Cluster(); cl != nil {
		return cl.CriticalHWSeconds()
	}
	return 0
}

// loopRun is what the measuring loop observed of one run.
type loopRun struct {
	n                  int
	stepWall, saveWall []float64
	// opCost is what each step added to the run: its own wall time plus
	// that of the checkpoint written after it, if one was.
	opCost []float64
	// wall is the time from the end of setup to the final state: every
	// step and every checkpoint write, nothing else.
	wall       float64
	ckptBytes  int64
	prefix     prefixSnapshot
	e0, eFinal float64
}

// runLoop steps a primed simulation until stop says so, checkpointing
// every w.ckptEvery steps and once more at the final state, and takes
// the prefix snapshot at step w.countSteps. each, if not nil, runs after
// every step, outside the timed part.
func runLoop(w *workload, s stepper, cfg grape5.Config, store *ckpt.Store,
	stop func(steps int, elapsed float64) bool, each func()) (*loopRun, error) {
	energy := func() float64 { return analysis.EnergyFromPotentials(s.system()).Total() }
	r := &loopRun{n: s.system().N(), e0: energy()}
	save := func() error {
		t0 := time.Now()
		info, err := s.save(store)
		if err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		r.saveWall = append(r.saveWall, d)
		r.opCost[len(r.opCost)-1] += d
		r.wall += d
		r.ckptBytes = info.Bytes
		return nil
	}
	for !stop(s.steps(), r.wall) {
		t0 := time.Now()
		if err := s.step(); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		r.stepWall = append(r.stepWall, d)
		r.opCost = append(r.opCost, d)
		r.wall += d

		if s.steps() == w.countSteps {
			fe, err := forceErrRMS(s.system(), cfg.G, cfg.Eps)
			if err != nil {
				return nil, err
			}
			r.prefix = prefixSnapshot{checksum: checksum(s.system()), forceErr: fe,
				hw: s.hwCounters(), critHW: s.critHW()}
		}
		if each != nil {
			each()
		}
		if s.steps()%w.ckptEvery == 0 {
			if err := save(); err != nil {
				return nil, err
			}
		}
	}
	if s.steps()%w.ckptEvery != 0 {
		if err := save(); err != nil {
			return nil, err
		}
	}
	r.eFinal = energy()
	return r, nil
}

// windowRates is the run's throughput in particle-steps per second over
// every stretch of w.ckptEvery consecutive steps. Each stretch holds
// exactly one periodic checkpoint write, so all of them did the same work.
func (r *loopRun) windowRates(w *workload) []float64 {
	work := make([]float64, len(r.opCost))
	for i := range work {
		work[i] = float64(r.n)
	}
	return windowRates(r.opCost, work, w.ckptEvery)
}

// newFacade generates the workload's inputs and returns a primed
// simulation over them.
func newFacade(w *workload, o runOpts) (*grape5.Simulation, error) {
	sys, cfg, err := w.build(o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	sim, err := grape5.NewSimulation(sys, cfg)
	if err != nil {
		return nil, err
	}
	if err := sim.Prime(); err != nil {
		_ = sim.Close() // the Prime error is the one to report
		return nil, err
	}
	return sim, nil
}

// runSimEndToEnd is the untraced run of a simulation workload.
func runSimEndToEnd(w *workload, o runOpts) (res runResult, err error) {
	ms := newMetricSet(endToEnd)
	ck := &checker{}

	var setups []float64
	var sim *grape5.Simulation
	for i := 0; i < setupReps; i++ {
		if sim != nil {
			if err := sim.Close(); err != nil {
				return runResult{}, err
			}
		}
		t0 := time.Now()
		if sim, err = newFacade(w, o); err != nil {
			return runResult{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeWith(&err, sim.Close)
	cfg := sim.Config()

	store, err := ckpt.OpenStore(filepath.Join(o.scratch, "ckpt"), 2)
	if err != nil {
		return runResult{}, err
	}
	run, err := runLoop(w, facade{sim}, cfg, store, func(steps int, elapsed float64) bool {
		return steps >= w.countSteps && elapsed >= o.seconds
	}, nil)
	if err != nil {
		return runResult{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return runResult{}, err
	}
	steps := sim.Steps()

	ms.set("setup_s", slices.Min(setups), len(setups))
	ms.set("op_wall_min_s", slices.Min(run.stepWall), len(run.stepWall))
	rates := run.windowRates(w)
	ms.set("particle_steps_per_s", slices.Max(rates), len(rates))
	ms.set("peak_rss_mb", rss, 1)

	fmt.Printf("run: N=%d steps=%d checkpoints=%d (%d bytes each) wall=%.3fs\n",
		run.n, steps, len(run.saveWall), run.ckptBytes, run.wall)
	run.prefix.print(fmt.Sprintf("simulated counters at step %d", w.countSteps))
	fmt.Printf("  final: checksum=%s\n", checksum(sim.Sys))

	fmt.Println("checks:")
	ck.require(run.prefix.forceErr <= w.forceErrMax,
		"force_err_rms %.4g within the E2 envelope %.4g", run.prefix.forceErr, w.forceErrMax)
	if w.energyMax > 0 {
		drift := math.Abs((run.eFinal - run.e0) / run.e0)
		ck.require(drift <= w.energyMax, "|dE/E| %.3g over %d steps within %.3g", drift, steps, w.energyMax)
	}
	rec := sim.Recovery()
	ck.require(rec.Retries+rec.CorruptResults+rec.ExcludedBoards+rec.FallbackBatches == 0,
		"guard saw no recovery events (%s)", rec)
	if err := checkResume(ck, sim, store, cfg); err != nil {
		return runResult{}, err
	}

	ms.print()
	metrics, err := ms.finish(false)
	if err != nil {
		return runResult{}, err
	}
	// Every step and every checkpoint save is one operation; a failed one
	// aborts the run above, so a run that gets here failed none.
	return runResult{Correct: ck.correct(), Attempted: steps + len(run.saveWall), Metrics: metrics}, nil
}

// checkResume resumes from the store's last checkpoint (the final state)
// and advances both that simulation and the uninterrupted one two steps:
// the two must agree bit for bit.
func checkResume(ck *checker, sim *grape5.Simulation, store *ckpt.Store, cfg grape5.Config) (err error) {
	c, gen, err := store.LatestValid()
	if err != nil {
		return err
	}
	if int(gen.Step) != sim.Steps() {
		return fmt.Errorf("last checkpoint is at step %d, run is at %d", gen.Step, sim.Steps())
	}
	// The block span is derived from DTMin; a resume leaves DT unset to
	// inherit it, as ResumeSimulation's merge rules ask.
	if cfg.Blocks > 0 {
		cfg.DT = 0
	}
	resumed, err := grape5.ResumeSimulation(c, cfg)
	if err != nil {
		return err
	}
	defer closeWith(&err, resumed.Close)
	if err := resumed.Run(2); err != nil {
		return err
	}
	if err := sim.Run(2); err != nil {
		return err
	}
	a, b := checksum(sim.Sys), checksum(resumed.Sys)
	ck.require(a == b, "resume from step %d + 2 steps is bitwise the uninterrupted run (%s vs %s)", gen.Step, a, b)
	return nil
}

// closeWith runs close at function exit and reports its error unless an
// earlier one is already on its way out.
func closeWith(err *error, close func() error) {
	if cerr := close(); *err == nil {
		*err = cerr
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runSimTraced is the traced run of a simulation workload: the pipeline
// assembled from the layers' constructors under benchmark spans, then
// the facade over the same number of steps (the untraced reference for
// the checksum and for the tracing overhead), then each layer replayed
// in isolation on the state captured at the counted prefix.
func runSimTraced(w *workload, o runOpts) (res runResult, err error) {
	ms := newMetricSet(perLayer)
	ck := &checker{}

	t0 := time.Now()
	sys, cfg, err := w.build(o.seed, o.smoke)
	if err != nil {
		return runResult{}, err
	}
	ms.set("ic.gen_s", time.Since(t0).Seconds(), 1)
	ms.set("ic.particles", float64(sys.N()), 1)

	tr := newTracer()
	p, err := assemble(sys, cfg, tr)
	if err != nil {
		return runResult{}, err
	}
	defer closeWith(&err, p.close)
	if err := p.prime(); err != nil {
		return runResult{}, err
	}
	store, err := ckpt.OpenStore(filepath.Join(o.scratch, "ckpt-traced"), 2)
	if err != nil {
		return runResult{}, err
	}

	// Counts start after priming, as the facade's per-step reports do.
	hw0, crit0 := p.hwCounters(), p.critHW()
	p.interactions, p.activeI, p.forceCalls = 0, 0, 0
	var (
		prefixSys *nbody.System
		counts    struct{ interactions, activeI, forceCalls int64 }
	)
	trun, err := runLoop(w, p, cfg, store, func(steps int, elapsed float64) bool {
		return steps >= w.countSteps && elapsed >= o.seconds/2
	}, func() {
		if p.nsteps == w.countSteps {
			prefixSys = sys.Clone()
			counts.interactions, counts.activeI, counts.forceCalls = p.interactions, p.activeI, p.forceCalls
		}
	})
	if err != nil {
		return runResult{}, err
	}
	prefix, steps := trun.prefix, p.nsteps
	tracedFinal := checksum(sys)

	// The facade over the same inputs and the same number of steps, with
	// its own per-step telemetry read off LastReport.
	sim, err := newFacade(w, o)
	if err != nil {
		return runResult{}, err
	}
	defer closeWith(&err, sim.Close)
	fstore, err := ckpt.OpenStore(filepath.Join(o.scratch, "ckpt-facade"), 2)
	if err != nil {
		return runResult{}, err
	}
	var allocBytes, phaseFrac []float64
	frun, err := runLoop(w, facade{sim}, cfg, fstore, func(n int, _ float64) bool { return n >= steps }, func() {
		rep := sim.LastReport
		ph := rep.Phases
		allocBytes = append(allocBytes, float64(rep.BytesAlloc))
		phaseFrac = append(phaseFrac,
			(ph.MortonSort+ph.TreeBuild+ph.GroupWalk+ph.ForceEval+ph.Guard)/rep.WallSeconds)
	})
	if err != nil {
		return runResult{}, err
	}

	fmt.Printf("run: N=%d steps=%d (traced) + %d (facade) spans=%d\n", sys.N(), steps, sim.Steps(), len(tr.spans))
	prefix.print(fmt.Sprintf("simulated counters at step %d", w.countSteps))
	if o.traceOut != "" {
		if err := tr.writeFile(o.traceOut); err != nil {
			return runResult{}, err
		}
	}

	// Per-step layer decomposition from the spans.
	bds, saveWall := tr.breakdowns()
	col := func(f func(stepBreakdown) float64) float64 {
		xs := make([]float64, len(bds))
		for i, b := range bds {
			xs[i] = f(b)
		}
		return median(xs)
	}
	nb := len(bds)
	stepP50 := col(func(b stepBreakdown) float64 { return b.wall })
	ms.set("integrate.self_s", col(func(b stepBreakdown) float64 { return b.integrateSelf }), nb)
	ms.set("g5.setscale_s", col(func(b stepBreakdown) float64 { return b.setScale }), nb)
	ms.set("core.force_s", col(func(b stepBreakdown) float64 { return b.computeTotal }), nb)
	ms.set("core.self_s", col(func(b stepBreakdown) float64 { return b.coreSelf }), nb)
	ms.set("engine.wall_s", col(func(b stepBreakdown) float64 { return b.engineWall }), nb)
	ms.set("engine.accumulate_busy_s", col(func(b stepBreakdown) float64 { return b.accumulate }), nb)
	ms.set("engine.flush_wait_s", col(func(b stepBreakdown) float64 { return b.flush }), nb)
	closure := 0.0
	var calls, niSum, njSum int64
	for _, b := range bds {
		closure = math.Max(closure, b.closure())
		if int(b.step) <= w.countSteps {
			calls += int64(b.calls)
			niSum += b.niSum
			njSum += b.njSum
		}
	}
	ms.set("trace.closure_defect_frac", closure, nb)
	ms.set("engine.calls", float64(calls), 1)
	if calls > 0 {
		ms.set("engine.ni_mean", float64(niSum)/float64(calls), int(calls))
		ms.set("engine.nj_mean", float64(njSum)/float64(calls), int(calls))
	}

	// Exact counts over the counted prefix.
	ms.set("core.interactions", float64(counts.interactions), 1)
	ms.set("core.active_i", float64(counts.activeI), 1)
	ms.set("core.avg_list", float64(counts.interactions)/float64(counts.activeI), 1)
	ms.set("core.active_frac", float64(counts.activeI)/(float64(sys.N())*float64(counts.forceCalls)), 1)
	ms.set("integrate.substeps", float64(counts.forceCalls), 1)
	ms.set("integrate.energy_drift", math.Abs((trun.eFinal-trun.e0)/trun.e0), 1)
	ms.set("check.force_err_rms", prefix.forceErr, forceSample)

	hw := prefix.hw
	hwModel := hw.HWSeconds() - hw0.HWSeconds()
	if p.cluster != nil {
		hwModel = prefix.critHW - crit0
	}
	ms.set("g5.hw_model_s_per_step", hwModel/float64(w.countSteps), w.countSteps)
	ms.set("g5.pipe_model_s", hw.PipeSeconds-hw0.PipeSeconds, 1)
	ms.set("g5.bus_model_s", hw.BusSeconds-hw0.BusSeconds, 1)
	ms.set("g5.bytes", float64(hw.BytesTransferred-hw0.BytesTransferred), 1)
	ms.set("g5.runs", float64(hw.Runs-hw0.Runs), 1)
	ms.set("g5.j_passes", float64(hw.JPasses-hw0.JPasses), 1)
	ms.set("g5.interactions", float64(hw.Interactions-hw0.Interactions), 1)
	ms.set("g5.recoveries", float64(p.recoveries()), 1)
	if cl := p.cluster; cl != nil {
		ms.set("g5.cluster_steals", float64(cl.Steals()), 1)
		ms.set("g5.cluster_shard_imbalance", imbalance(cl.ShardInteractions()), 1)
	}

	ms.set("ckpt.save_s", median(saveWall), len(saveWall))
	ms.set("ckpt.bytes", float64(trun.ckptBytes), 1)
	if s := median(saveWall); s > 0 {
		ms.set("ckpt.mb_per_s", float64(trun.ckptBytes)/1e6/s, len(saveWall))
	}

	// Facade and in-program telemetry against the assembled pipeline.
	// The two passes run one after the other, so they are compared at their
	// fastest steps: their medians differ by what the machine did between.
	facadeP50, facadeMin := median(frun.stepWall), slices.Min(frun.stepWall)
	ms.set("sim.step_wall_p50_s", facadeP50, len(frun.stepWall))
	ms.set("sim.step_wall_p75_s", quantile(frun.stepWall, 0.75), len(frun.stepWall))
	ms.set("sim.step_overhead_s", facadeMin-slices.Min(trun.stepWall), len(frun.stepWall))
	ms.set("sim.alloc_bytes_per_step", median(allocBytes), len(allocBytes))
	ms.set("obs.phase_sum_frac", median(phaseFrac), len(phaseFrac))
	overhead := slices.Min(trun.stepWall)/facadeMin - 1
	ms.set("trace.overhead_frac", overhead, len(trun.stepWall))

	if err := replayLayers(ms, prefixSys, cfg, store); err != nil {
		return runResult{}, err
	}

	setRuntimeMetrics(ms)

	fmt.Println("checks:")
	ck.require(prefix.checksum == frun.prefix.checksum,
		"assembled pipeline is bitwise the facade at step %d (%s vs %s)", w.countSteps, prefix.checksum, frun.prefix.checksum)
	facadeFinal := checksum(sim.Sys)
	ck.require(tracedFinal == facadeFinal,
		"assembled pipeline is bitwise the facade at step %d (%s vs %s)", steps, tracedFinal, facadeFinal)
	ck.require(sameCounters(prefix.hw, frun.prefix.hw), "simulated hardware counters equal the facade's")
	ck.require(closure <= 0.02, "layer self times sum to the step wall within 2%% (worst step off by %.3g)", closure)
	ck.require(p.recoveries() == 0, "guard saw no recovery events")
	ck.require(prefix.forceErr <= w.forceErrMax,
		"force_err_rms %.4g within the E2 envelope %.4g", prefix.forceErr, w.forceErrMax)
	if overhead > 0.05 {
		// A timing never decides correctness; say it and carry on.
		fmt.Printf("  warn  trace.overhead_frac %.3g is above 0.05\n", overhead)
	}

	fmt.Printf("shares of the traced step wall (p50 %.4gs, facade %.4gs):\n", stepP50, facadeP50)
	for _, name := range []string{"integrate.self_s", "g5.setscale_s", "core.self_s", "engine.wall_s"} {
		fmt.Printf("  %-20s %5.1f%%\n", name, 100*ms.values[name].Value/stepP50)
	}
	ms.print()
	metrics, err := ms.finish(true)
	if err != nil {
		return runResult{}, err
	}
	return runResult{Correct: ck.correct(), Attempted: steps + sim.Steps() + len(trun.saveWall) + len(frun.saveWall), Metrics: metrics}, nil
}

// sameCounters compares two hardware counter sets: the integer counts
// exactly, the simulated seconds to rounding. The seconds are float sums
// taken in the order the two walk workers reach the device, so their
// last bits depend on scheduling even though every term is the same.
func sameCounters(a, b g5.Counters) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Abs(x) }
	ai, bi := a, b
	ai.PipeSeconds, ai.BusSeconds, bi.PipeSeconds, bi.BusSeconds = 0, 0, 0, 0
	return ai == bi && near(a.PipeSeconds, b.PipeSeconds) && near(a.BusSeconds, b.BusSeconds)
}

// imbalance is the busiest shard's load over the mean, minus one.
func imbalance(loads []int64) float64 {
	var sum, peak int64
	for _, l := range loads {
		sum += l
		peak = max(peak, l)
	}
	if sum == 0 {
		return 0
	}
	return float64(peak)*float64(len(loads))/float64(sum) - 1
}
