// Command grape5sim runs N-body simulations with the treecode on the
// emulated GRAPE-5 (or the float64 host engine), the way the paper's
// headline run was driven: fixed-timestep leapfrog, per-step
// performance statistics, optional snapshot output — and crash-safe
// checkpointing, so a killed run resumes bitwise identical to the
// uninterrupted one.
//
// Examples:
//
//	grape5sim -model plummer -n 10000 -steps 100 -engine grape5
//	grape5sim -model cosmo -grid 32 -steps 400 -snap run_%04d.g5 -every 100
//	grape5sim -model cosmo -grid 32 -steps 999 -ckpt-dir run1.ckpt -ckpt-every 50
//
// With -ckpt-dir the run checkpoints every -ckpt-every steps (atomic
// write, keep-last -ckpt-keep rotation) and automatically resumes from
// the latest valid checkpoint when restarted with the same directory —
// falling back to an older generation if the newest is corrupt, and
// refusing loudly if none survive. SIGINT/SIGTERM finish the step in
// flight, write a final checkpoint and exit 0.
package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/fsx"
	"repro/internal/g5"
	"repro/internal/perf"
	"repro/internal/snapio"
	"repro/internal/units"
)

// stepLogHeader names the -log CSV columns, in stepRow's order.
var stepLogHeader = []string{
	"step", "time", "groups", "interactions",
	"avg_list", "build_ms", "walk_ms", "compute_ms",
	"kinetic", "potential", "total_energy", "active_frac"}

// stepRow formats the -log row of the step just completed. One row
// describes one step interval — under -blocks the whole block — so the
// totals come from LastReport, which sums the step's force calls, not
// from LastStats, which is the last of them only (and would sit beside
// an active_frac that covers them all).
func stepRow(sim *grape5.Simulation) []string {
	rep := sim.LastReport
	e := sim.Energy()
	return []string{
		fmt.Sprint(rep.Step),
		fmt.Sprintf("%.8g", sim.Time()),
		fmt.Sprint(rep.Groups),
		fmt.Sprint(rep.Interactions),
		fmt.Sprintf("%.1f", avgList(sim)),
		fmt.Sprintf("%.3f", 1e3*rep.TBuild),
		fmt.Sprintf("%.3f", 1e3*rep.Phases.GroupWalk),
		fmt.Sprintf("%.3f", 1e3*rep.Phases.ForceEval),
		fmt.Sprintf("%.8g", e.Kinetic),
		fmt.Sprintf("%.8g", e.Potential),
		fmt.Sprintf("%.8g", e.Total()),
		fmt.Sprintf("%.6g", rep.ActiveFrac),
	}
}

// avgList is the last step's interactions per particle.
func avgList(sim *grape5.Simulation) float64 {
	if sim.Sys.N() == 0 {
		return 0
	}
	return float64(sim.LastReport.Interactions) / float64(sim.Sys.N())
}

// openStepLog opens the per-step CSV, resume-aware: on a fresh run it
// creates the file with a header; on a resume it drops rows beyond the
// resume step (the crashed incarnation may have logged steps whose
// checkpoint never landed — the resumed run re-executes and re-logs
// them) and appends. Rows are flushed per step so a crash tears at most
// the row in flight, which the next resume prunes.
func openStepLog(path string, resumeStep int, header []string) (*os.File, *csv.Writer, error) {
	data, err := os.ReadFile(path)
	fresh := resumeStep == 0 || err != nil
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	if !fresh {
		r := csv.NewReader(bytes.NewReader(data))
		r.FieldsPerRecord = -1
		var kept [][]string
		for i := 0; ; i++ {
			rec, err := r.Read()
			if err != nil {
				break // EOF or a torn final row: keep what parsed
			}
			if i == 0 {
				kept = append(kept, rec)
				continue
			}
			step, err := strconv.Atoi(rec[0])
			if err != nil || step > resumeStep {
				continue
			}
			kept = append(kept, rec)
		}
		if _, err := fsx.AtomicWriteFile(path, func(w io.Writer) error {
			cw := csv.NewWriter(w)
			if err := cw.WriteAll(kept); err != nil {
				return err
			}
			cw.Flush()
			return cw.Error()
		}); err != nil {
			return nil, nil, fmt.Errorf("pruning %s for resume: %w", path, err)
		}
	}
	flags := os.O_CREATE | os.O_WRONLY
	if fresh {
		flags |= os.O_TRUNC
	} else {
		flags |= os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := csv.NewWriter(f)
	if fresh {
		if err := w.Write(header); err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
		w.Flush()
	}
	return f, w, w.Error()
}

// ifSet returns v when its flag was given explicitly and the zero value
// ("unset: inherit") otherwise.
func ifSet[T any](given bool, v T) (zero T) {
	if given {
		return v
	}
	return zero
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("grape5sim: ")

	var (
		model  = flag.String("model", "plummer", "initial model: plummer, uniform, cosmo")
		resume = flag.String("resume", "", "resume from a checkpoint or snapshot file (overrides -model); its particle IDs must be a permutation of 0..N-1 or the run is refused")
		n      = flag.Int("n", 10000, "particle count (plummer/uniform)")
		grid   = flag.Int("grid", 16, "IC grid size per dimension (cosmo; power of two)")
		radius = flag.Float64("radius", units.PaperRadiusMpc, "comoving sphere radius in Mpc (cosmo)")
		zinit  = flag.Float64("zinit", units.PaperZInit, "starting redshift (cosmo)")
		sigma8 = flag.Float64("sigma8", 0.67, "power spectrum normalisation (cosmo)")
		steps  = flag.Int("steps", 100, "total number of leapfrog steps (a resumed run continues to this count)")
		dt     = flag.Float64("dt", 0, "timestep (0 = model default, or inherited on resume)")
		blocks = flag.Int("blocks", 0, "hierarchical block-timestep rung levels (0 = shared dt); one step spans dtmin*2^(blocks-1)")
		dtMin  = flag.Float64("dtmin", 0, "finest block timestep (-blocks), or the adaptive floor (-eta)")
		eta    = flag.Float64("eta", 0, "timestep accuracy parameter; with -blocks the rung criterion, alone it selects the shared adaptive integrator")
		theta  = flag.Float64("theta", grape5.DefaultTheta, "Barnes-Hut opening parameter")
		ncrit  = flag.Int("ncrit", grape5.DefaultNcrit, "modified-algorithm group bound n_g")
		eps    = flag.Float64("eps", 0, "Plummer softening (0 = model default)")
		engine = flag.String("engine", "grape5", "force engine: host, grape5, pm")
		boards = flag.Int("boards", 1, "GRAPE shard count K: drive K independent board systems through the sharded cluster engine (grape5 engine only)")
		pmGrid = flag.Int("pmgrid", 64, "particle-mesh size for -engine pm")
		seed   = flag.Uint64("seed", 1, "random seed")
		snap   = flag.String("snap", "", "snapshot filename pattern (printf with step), e.g. snap_%04d.g5")
		every  = flag.Int("every", 0, "snapshot interval in steps (0 = final only when -snap set)")
		report = flag.Int("report", 10, "print statistics every this many steps")
		csvLog = flag.String("log", "", "write per-step statistics to this CSV file (resume-aware)")

		// Crash-safe checkpointing.
		ckptDir   = flag.String("ckpt-dir", "", "checkpoint directory: periodic durable saves and automatic resume")
		ckptEvery = flag.Int("ckpt-every", 100, "checkpoint interval in steps (with -ckpt-dir)")
		ckptKeep  = flag.Int("ckpt-keep", ckpt.DefaultKeep, "checkpoint generations to retain")

		// Crash injection for the kill/resume test harness. The step count
		// is local to this process (steps *it* executed, not the global
		// step index), so a supervised run makes progress every
		// incarnation and terminates once the crash point passes the end.
		crashStep = flag.Int("crash-at-step", 0, "inject a crash after this many locally-executed steps (testing)")
		crashMode = flag.String("crash-mode", "kill", "crash flavour: kill (os.Exit mid-run) or torn-ckpt (truncated checkpoint, then exit)")

		// Fault injection and the fault-tolerant offload path (grape5
		// engine only). Rates are per-hardware-call probabilities.
		faultSeed   = flag.Uint64("fault-seed", 1, "fault injector seed (deterministic)")
		faultFlip   = flag.Float64("fault-bitflip", 0, "j-memory bit-flip rate")
		faultStuck  = flag.Float64("fault-stuck", 0, "stuck virtual-pipeline rate")
		faultBus    = flag.Float64("fault-bus", 0, "bus transfer-error rate")
		faultTrans  = flag.Float64("fault-transient", 0, "transient compute-failure rate")
		failBoard   = flag.Int("fail-board", 0, "board (1-based) that dies mid-run; 0 = none")
		failAfter   = flag.Int64("fail-after", 0, "hardware calls the failing board survives")
		failSlot    = flag.Int("fail-slot", 0, "virtual-pipeline slot that sticks on the failing board")
		guard       = flag.Bool("guard", false, "run the fault-tolerant offload path (verify, retry, degrade, fall back)")
		checkForces = flag.Bool("check-forces", false, "recompute final forces with the host engine and report the RMS error")
	)
	flag.Parse()

	// Distinguish explicitly-set flags from defaults: on resume, an unset
	// flag inherits the checkpoint's value; a set flag either matches or
	// errors (it never silently drops checkpointed state).
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	engKind, err := grape5.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}
	// Timestep-scheduling flag conflicts, caught before any work: the
	// same explicit-flag discipline as resume (unset inherits, set must
	// be coherent).
	if setFlags["blocks"] && *blocks > 0 && !setFlags["dtmin"] {
		log.Fatal("-blocks requires -dtmin (the finest rung timestep)")
	}
	if setFlags["dtmin"] && !setFlags["blocks"] && !setFlags["eta"] {
		log.Fatal("-dtmin needs a scheduler: give -blocks (block timesteps) or -eta (adaptive dt)")
	}
	if setFlags["blocks"] && *blocks > 0 && setFlags["dt"] {
		log.Fatal("-dt conflicts with -blocks: the step is dtmin*2^(blocks-1); drop -dt")
	}
	adaptive := setFlags["eta"] && !(setFlags["blocks"] && *blocks > 0)
	if *crashMode != "kill" && *crashMode != "torn-ckpt" {
		log.Fatalf("unknown -crash-mode %q (want kill or torn-ckpt)", *crashMode)
	}
	if *crashStep > 0 && *crashMode == "torn-ckpt" && *ckptDir == "" {
		log.Fatal("-crash-mode torn-ckpt requires -ckpt-dir")
	}

	faultsOn := *faultFlip > 0 || *faultStuck > 0 || *faultBus > 0 ||
		*faultTrans > 0 || *failBoard > 0
	var fault *g5.FaultModel
	if faultsOn {
		fault = &g5.FaultModel{
			Seed:            *faultSeed,
			JMemBitFlipRate: *faultFlip,
			StuckPipeRate:   *faultStuck,
			BusErrorRate:    *faultBus,
			TransientRate:   *faultTrans,
			FailBoard:       *failBoard,
			FailAfterRuns:   *failAfter,
			FailSlot:        *failSlot,
		}
		if !*guard && *boards <= 1 {
			fmt.Println("note: injecting faults without -guard; corruption goes undetected")
		}
	}

	// Resume discovery. Precedence: a valid checkpoint in -ckpt-dir wins
	// (that is the supervised-restart path); -resume names an explicit
	// file. Having both a valid store checkpoint and -resume is ambiguous
	// and refused. A store where every generation is corrupt is a loud
	// error, never a silent fresh start.
	var store *ckpt.Store
	var resumed *ckpt.Checkpoint
	fromStore := false
	if *ckptDir != "" {
		store, err = ckpt.OpenStore(*ckptDir, *ckptKeep)
		if err != nil {
			log.Fatal(err)
		}
		c, gen, lerr := store.LatestValid()
		switch {
		case lerr == nil:
			if *resume != "" {
				log.Fatalf("ambiguous resume: -ckpt-dir %s holds a valid checkpoint (step %d) and -resume %s was also given; drop one",
					*ckptDir, gen.Step, *resume)
			}
			resumed = c
			fromStore = true
			fmt.Printf("resuming from %s (step %d, t=%.6g)\n",
				filepath.Join(*ckptDir, gen.File), gen.Step, c.State.Time)
		case errors.Is(lerr, ckpt.ErrNoCheckpoint):
			// Fresh store: start from the model or -resume.
		default:
			log.Fatalf("checkpoint discovery failed — refusing to silently restart: %v", lerr)
		}
	}
	if resumed == nil && *resume != "" {
		resumed, err = ckpt.LoadResumable(*resume)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resuming from %s: N=%d step=%d t=%.6g primed=%v\n",
			*resume, resumed.Sys.N(), resumed.State.Step, resumed.State.Time, resumed.State.Primed)
	}

	var sim *grape5.Simulation
	if resumed != nil {
		if setFlags["model"] {
			// An auto-resume re-execs the original command line (that is
			// how a supervised restart works), so the model flags are
			// simply superseded by the checkpoint. Naming both an
			// explicit -resume file and a model is genuinely ambiguous.
			if fromStore {
				fmt.Println("note: -model superseded by the checkpoint; particle state resumes")
			} else {
				log.Fatal("-model conflicts with -resume: the particle state comes from the file; drop one")
			}
		}
		st := resumed.State
		if setFlags["engine"] && st.Engine >= 0 && int64(engKind) != st.Engine {
			log.Fatalf("resume: checkpoint ran -engine %s but -engine %s was given; drop the flag or start a fresh run",
				grape5.EngineKind(st.Engine), engKind)
		}
		// Overlay config: only explicitly-set flags; everything else
		// inherits the checkpoint's fingerprint (ResumeConfig errors on
		// any conflict).
		overlay := grape5.Config{
			Guard: *guard, Fault: fault, Adaptive: adaptive,
			Engine: ifSet(setFlags["engine"], engKind),
			Theta:  ifSet(setFlags["theta"], *theta),
			Ncrit:  ifSet(setFlags["ncrit"], *ncrit),
			Eps:    ifSet(setFlags["eps"], *eps),
			DT:     ifSet(setFlags["dt"], *dt),
			PMGrid: ifSet(setFlags["pmgrid"], *pmGrid),
			Shards: ifSet(setFlags["boards"], *boards),
			Blocks: ifSet(setFlags["blocks"], *blocks),
			DTMin:  ifSet(setFlags["dtmin"], *dtMin),
			Eta:    ifSet(setFlags["eta"], *eta),
		}
		sim, err = grape5.ResumeSimulation(resumed, overlay)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := grape5.Config{Theta: *theta, Ncrit: *ncrit, Eps: *eps,
			Engine: engKind, Guard: *guard, Fault: fault,
			Shards: ifSet(setFlags["boards"], *boards),
			Blocks: *blocks, DTMin: *dtMin, Eta: *eta, Adaptive: adaptive}
		if engKind == grape5.EnginePM {
			cfg.PMGrid = *pmGrid
		}

		var sys *grape5.System
		aux := grape5.RunAux{Seed: *seed}
		if *model == "cosmo" {
			cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{
				GridN: *grid, RadiusMpc: *radius, ZInit: *zinit, Sigma8: *sigma8, Seed: *seed,
			}, *steps)
			if err != nil {
				log.Fatal(err)
			}
			sys = cs.Sys
			cfg.DT = cs.Schedule.DT()
			if cfg.Eps == 0 {
				cfg.Eps = cs.GridSpacing * cs.AInit // initial physical spacing
			}
			aux.Scale = cs.AInit
			aux.T0 = cs.Schedule.T0
			aux.Age0 = cs.Schedule.T1 // EdS age at a=1
			fmt.Printf("cosmological sphere: N=%d, particle mass %.4g x 1e10 Msun, spacing %.3g Mpc, z=%.1f -> 0\n",
				sys.N(), cs.ParticleMass, cs.GridSpacing, *zinit)
		} else {
			m, err := grape5.LookupModel(*model)
			if err != nil {
				log.Fatalf("%v; grape5sim also offers cosmo", err)
			}
			cfg.G = m.G
			sys = m.New(*n, *seed)
			if cfg.Eps == 0 {
				cfg.Eps = m.Eps
			}
			cfg.DT = m.DT
		}
		if *dt != 0 {
			cfg.DT = *dt
		}
		if cfg.Blocks > 0 {
			// Block runs derive the step from the rung ladder; the model
			// default DT would conflict with the span.
			cfg.DT = 0
		}
		sim, err = grape5.NewSimulation(sys, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.SetAux(aux)
	}
	defer func() {
		if err := sim.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()

	cfg := sim.Config()
	aux := sim.Aux()
	// A primed resume already holds the post-force state of its step; a
	// re-prime would be both wasted work and a determinism bug.
	if !sim.Primed() {
		if err := sim.Prime(); err != nil {
			log.Fatal(err)
		}
	}
	e0 := sim.Energy()
	fmt.Printf("N=%d steps=%d..%d dt=%.4g theta=%.2f ncrit=%d eps=%.4g engine=%s\n",
		sim.Sys.N(), sim.Steps(), *steps, cfg.DT, cfg.Theta, cfg.Ncrit, cfg.Eps, cfg.Engine)
	if cfg.Blocks > 0 {
		fmt.Printf("block timesteps: %d rungs, dtmin=%.4g span=%.4g, occupancy=%v\n",
			cfg.Blocks, cfg.DTMin, cfg.DT, sim.RungOccupancy())
	} else if cfg.Adaptive {
		fmt.Printf("adaptive dt: eta=%.3g ceiling=%.4g floor=%.4g\n", cfg.Eta, cfg.DT, cfg.DTMin)
	}
	fmt.Printf("initial energy: K=%.4g U=%.4g E=%.4g\n", e0.Kinetic, e0.Potential, e0.Total())
	if sim.Steps() >= *steps {
		fmt.Printf("nothing to do: checkpoint is at step %d and -steps is %d\n", sim.Steps(), *steps)
	}

	writeSnap := func(step int) {
		if *snap == "" {
			return
		}
		name := *snap
		if strings.Contains(name, "%") {
			name = fmt.Sprintf(name, step)
		}
		sc := aux.Scale
		if aux.Age0 > 0 {
			// Einstein-de Sitter: a(t) = (t/t_0)^{2/3}.
			sc = math.Pow((aux.T0+sim.Time())/aux.Age0, 2.0/3.0)
		}
		h := snapio.Header{Time: sim.Time(), Step: int64(step), Scale: sc,
			Eps: cfg.Eps, Theta: cfg.Theta, DT: cfg.DT}
		if err := snapio.WriteFile(name, h, sim.Sys); err != nil {
			log.Fatalf("writing %s: %v", name, err)
		}
		fmt.Printf("wrote %s\n", name)
	}

	var logW *csv.Writer
	if *csvLog != "" {
		f, w, err := openStepLog(*csvLog, sim.Steps(), stepLogHeader)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		logW = w
		defer logW.Flush()
	}

	saveCkpt := func() ckpt.SaveInfo {
		info, err := sim.Checkpoint(store)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ckpt: wrote %s (step %d, %d bytes, %.1f ms)\n",
			filepath.Base(info.Path), info.Step, info.Bytes,
			1e3*sim.LastReport.Phases.Checkpoint)
		return info
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	localSteps := 0

	for s := sim.Steps() + 1; s <= *steps; s++ {
		if err := sim.Step(); err != nil {
			log.Fatalf("step %d: %v", s, err)
		}
		localSteps++
		// Crash injection sits right after the physics and before any
		// bookkeeping: the harshest point — telemetry, CSV rows and the
		// periodic checkpoint for this step are all lost.
		if *crashStep > 0 && localSteps == *crashStep {
			if *crashMode == "torn-ckpt" {
				info := saveCkpt()
				if err := os.Truncate(info.Path, info.Bytes/2); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("crash: tore checkpoint %s, exiting\n", filepath.Base(info.Path))
				os.Exit(3)
			}
			fmt.Printf("crash: injected kill after local step %d (global step %d)\n", localSteps, s)
			os.Exit(3)
		}
		if *report > 0 && s%*report == 0 {
			rep := sim.LastReport
			ms := func(sec float64) time.Duration { return time.Duration(sec * 1e9).Round(1e6) }
			fmt.Printf("step %4d: groups=%d interactions=%.3g avgList=%.0f build=%v walk=%v compute=%v\n",
				s, rep.Groups, float64(rep.Interactions), avgList(sim),
				ms(rep.TBuild), ms(rep.Phases.GroupWalk), ms(rep.Phases.ForceEval))
		}
		if logW != nil {
			rec := stepRow(sim)
			if err := logW.Write(rec); err != nil {
				log.Fatal(err)
			}
			// Flush per row: a crash loses at most the torn row in
			// flight, which the resume path prunes.
			logW.Flush()
			if err := logW.Error(); err != nil {
				log.Fatal(err)
			}
		}
		if *every > 0 && s%*every == 0 {
			writeSnap(s)
		}
		if store != nil && *ckptEvery > 0 && s%*ckptEvery == 0 && s < *steps {
			saveCkpt()
		}
		select {
		case sig := <-sigCh:
			// Graceful shutdown: the step in flight is already complete,
			// so the checkpoint captures a clean boundary. A second
			// signal aborts immediately.
			go func() { <-sigCh; os.Exit(130) }()
			fmt.Printf("%v: stopping after step %d\n", sig, s)
			if store != nil {
				saveCkpt()
			}
			if err := sim.Close(); err != nil {
				log.Printf("close: %v", err)
			}
			fmt.Println("interrupted: state saved; rerun with the same -ckpt-dir to continue")
			os.Exit(0)
		default:
		}
	}
	if store != nil && sim.Steps() == *steps {
		// Final checkpoint: a supervised restart of a completed run sees
		// step == -steps and exits cleanly instead of recomputing.
		saveCkpt()
	}
	if *every == 0 {
		writeSnap(*steps)
	}

	e1 := sim.Energy()
	// Normalise the drift by |U0|: a marginally bound cosmological
	// sphere has E ≈ 0, which would make a drift relative to E0
	// meaningless.
	denom := math.Abs(e0.Potential)
	if math.Abs(e0.Total()) > denom {
		denom = math.Abs(e0.Total())
	}
	fmt.Printf("final energy:   K=%.4g U=%.4g E=%.4g (drift %.3g of |U0|)\n",
		e1.Kinetic, e1.Potential, e1.Total(), (e1.Total()-e0.Total())/denom)
	fmt.Printf("total interactions: %.4g (avg list %.0f)\n",
		float64(sim.TotalInteractions),
		float64(sim.TotalInteractions)/float64(sim.Sys.N())/float64(*steps+1))
	if cfg.Blocks > 0 {
		fmt.Printf("block scheduler: rung occupancy %v, last-step active fraction %.3g over %d substeps\n",
			sim.RungOccupancy(), sim.LastReport.ActiveFrac, sim.LastReport.Substeps)
	}

	if c := sim.HardwareCounters(); c.Runs > 0 && sim.Config().Engine == grape5.EngineGRAPE5 {
		cl := sim.Cluster()
		k := cl.Shards()
		fmt.Printf("GRAPE-5: runs=%d j-passes=%d bytes=%.3g clamps=%d\n",
			c.Runs, c.JPasses, float64(c.BytesTransferred), c.RangeClamps)
		// For K > 1 the shards drain concurrently: the aggregate pipe/bus
		// seconds are total work, the critical path is wall.
		wall := c.HWSeconds()
		if k > 1 {
			wall = cl.CriticalHWSeconds()
		}
		fmt.Printf("GRAPE-5 modelled time: pipe %.3gs + bus %.3gs = %.3gs aggregate (peak %.4g Gflops)\n",
			c.PipeSeconds, c.BusSeconds, c.HWSeconds(), float64(k)*g5.PeakFlops/1e9)
		if k > 1 {
			loads := cl.ShardInteractions()
			fmt.Printf("cluster: K=%d shards, critical-path hardware time %.3gs\n", k, wall)
			for s, ints := range loads {
				fmt.Printf("  shard %d: interactions=%.3g batches=%d boards=%d/%d\n",
					s, float64(ints), cl.ShardBatches()[s],
					cl.ShardSystem(s).ActiveBoards(), g5.Boards)
			}
		}
		gb := perf.GordonBell{
			Interactions:         float64(sim.TotalInteractions),
			OriginalInteractions: float64(sim.TotalInteractions), // raw accounting here
			WallClockSeconds:     wall,
			OpsPerInteraction:    g5.OpsPerInteraction,
			Cost:                 perf.PaperCostModel(),
		}
		fmt.Printf("hardware-side sustained speed: %.3g Gflops of %.4g peak\n",
			gb.RawFlops()/1e9, float64(k)*g5.PeakFlops/1e9)
	}
	if fs := sim.FaultStats(); fs != (g5.FaultStats{}) {
		fmt.Printf("injected faults: bitflips=%d stuck-pipe-calls=%d bus=%d transient=%d\n",
			fs.JMemBitFlips, fs.StuckPipeCalls, fs.BusErrors, fs.Transients)
	}
	if rec := sim.Recovery(); rec != (g5.Recovery{}) {
		fmt.Printf("recovery: %s\n", rec)
		switch h := sim.Health(); {
		case h.Shards > 1:
			fmt.Printf("boards in service: %d of %d (across %d shards)\n",
				h.BoardsActive, h.BoardsTotal, h.Shards)
		case h.Shards == 1:
			fmt.Printf("boards in service: %d of %d\n", h.BoardsActive, h.BoardsTotal)
		}
	}

	if *checkForces {
		ref := sim.Sys.Clone()
		refCfg := cfg
		refCfg.Engine = grape5.EngineHost
		refCfg.Guard = false
		refCfg.Shards = 0
		refCfg.Fault = nil
		refSim, err := grape5.NewSimulation(ref, refCfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := refSim.Prime(); err != nil {
			log.Fatal(err)
		}
		// Both systems were reordered by their tree builds; match by ID.
		refAcc := make(map[int64]grape5.Vec3, ref.N())
		for i := range ref.ID {
			refAcc[ref.ID[i]] = ref.Acc[i]
		}
		var num, den float64
		for i := range sim.Sys.ID {
			ra := refAcc[sim.Sys.ID[i]]
			num += sim.Sys.Acc[i].Sub(ra).Norm2()
			den += ra.Norm2()
		}
		fmt.Printf("final-snapshot RMS force error vs host engine: %.4g%%\n",
			100*math.Sqrt(num/den))
	}

	// Final structure summary.
	sim.Sys.Recenter()
	b := sim.Sys.Bounds()
	ext := b.MaxEdge()
	proj, err := analysis.Project(sim.Sys, analysis.SlabSpec{
		XMin: -ext / 2, XMax: ext / 2, YMin: -ext / 2, YMax: ext / 2,
		ZMin: -ext / 2, ZMax: ext / 2}, 128, 128)
	if err == nil {
		fmt.Printf("clustering contrast (variance/mean of projected counts): %.2f\n",
			proj.ClusteringContrast())
	}
}
