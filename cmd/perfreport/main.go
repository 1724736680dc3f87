// Command perfreport regenerates the paper's evaluation numbers. With
// no subcommand it prints
//
//	E1  theoretical peak (109.44 Gflops, §2)
//	E7  system cost ($40,900, §4)
//	E8  particle mass (1.7e10 Msun, §5)
//	E4  headline run statistics: interactions, average list length,
//	    wall clock, raw Gflops (§5)
//	E5  original-algorithm correction and effective Gflops, and the
//	    $X/Mflops headline (§5)
//
// The traversal runs for real at the requested scale (default the
// paper's full N = 2,159,038 via -grid 160 equivalent sphere, see
// -full; smaller by default) over both clustered and unclustered
// snapshots; host time uses the calibrated DS10 model and GRAPE time
// the g5 timing model; the run totals extrapolate per-step statistics
// to the paper's 999 steps.
//
// Two subcommands print the other evaluation tables from the same
// snapshot loader and timing-model replay:
//
//	perfreport ngsweep   E3  optimal group size n_g (§3)
//	perfreport accuracy  E2  pairwise and total force error (§2)
//
// A third takes no flags and writes the committed performance record:
//
//	perfreport record > BENCH_treecode.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	grape5 "repro"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/perf"
	"repro/internal/snapio"
	"repro/internal/units"
)

const usage = `usage:
  perfreport [flags]           E1/E4/E5/E7/E8 headline report (-faults appends degraded-mode offload)
  perfreport ngsweep [flags]   E3: time balance per group size n_g
  perfreport accuracy [flags]  E2: force error tables (-frontier appends the cost frontier)
  perfreport record            BENCH_treecode.json: the §3 balance over n_g and K, on stdout
run any form with -h for its flags`

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfreport: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run dispatches on the optional leading subcommand and writes the
// selected report to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runReport(args, w)
	}
	switch args[0] {
	case "ngsweep":
		return runNgSweep(args[1:], w)
	case "accuracy":
		return runAccuracy(args[1:], w)
	case "record":
		if len(args) > 1 {
			return fmt.Errorf("record takes no arguments\n%s", usage)
		}
		return runRecord(w)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
}

func runReport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfreport", flag.ContinueOnError)
	var (
		grid   = fs.Int("grid", 32, "IC grid per dimension for the measured traversal")
		full   = fs.Bool("full", false, "run the traversal at the paper's full N=2,159,038 (grid 160; needs ~2 GB and minutes)")
		in     = fs.String("in", "", "evolved snapshot to measure on (more faithful list lengths than fresh ICs)")
		theta  = fs.Float64("theta", grape5.DefaultTheta, "opening parameter")
		ncrit  = fs.Int("ncrit", grape5.DefaultNcrit, "group bound n_g (paper optimum)")
		seed   = fs.Uint64("seed", 1, "IC seed")
		epochs = fs.String("epochs", "", "comma-separated redshifts: measure a Zel'dovich realisation at each and average the per-step model over them (approximates the paper's run average), e.g. 24,9,4,1.5,0")
		faults = fs.Bool("faults", false, "append degraded-mode offload: the guarded path with an injected board failure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := g5.DefaultConfig()
	cost := perf.PaperCostModel()

	// ----- E1: peak speed accounting ---------------------------------
	fmt.Fprintln(w, "== E1: theoretical peak (paper §2) ==")
	fmt.Fprintf(w, "pipelines: %d boards x %d chips x %d pipes = %d physical (x%d VMP = %d virtual/board)\n",
		cfg.Boards, cfg.ChipsPerBoard, cfg.PipesPerChip, cfg.PhysicalPipes(), cfg.VMP,
		cfg.VirtualPipesPerBoard())
	fmt.Fprintf(w, "peak: %d pipes x %.0f MHz x %d ops = %.2f Gflops   (paper: 109.44)\n\n",
		cfg.PhysicalPipes(), cfg.ChipClockHz/1e6, cfg.OpsPerInteraction, cfg.PeakFlops()/1e9)

	// ----- E7: cost ---------------------------------------------------
	fmt.Fprintln(w, "== E7: system cost (paper §4) ==")
	fmt.Fprintf(w, "%d boards x %.2f M JYE + host %.1f M JYE = %.1f M JYE\n",
		cost.Boards, cost.BoardJYE/1e6, cost.HostJYE/1e6, cost.TotalJYE()/1e6)
	fmt.Fprintf(w, "at %.0f JYE/$: $%.0f   (paper: ~$40,900)\n\n", cost.YenPerDollar, cost.TotalDollars())

	// ----- E8: particle mass ------------------------------------------
	fmt.Fprintln(w, "== E8: particle mass (paper §5) ==")
	m := units.ParticleMass(units.OmegaM, units.LittleH, units.PaperRadiusMpc, units.PaperN)
	fmt.Fprintf(w, "Omega=1, h=0.5, 50 Mpc sphere, N=%d: m = %.3g Msun   (paper: 1.7e10)\n\n",
		units.PaperN, m*1e10)

	// ----- measured traversal -----------------------------------------
	gridN, latticeN := *grid, 0
	if *full {
		// π/6 · 160³ ≈ 2.14e6 particles ≈ the paper's N, sampled from a
		// 128³ Fourier grid.
		gridN, latticeN = 128, 160
	}
	host := perf.DS10()

	// Every snapshot measured is one sample of the per-step model; the
	// report prices their mean (a single sample unless -epochs).
	var sum perf.StepReport
	var sumOrig int64
	var samples, nMeasured int
	measure := func(sys *nbody.System, label string) error {
		t0 := time.Now()
		rep, st, err := perf.TreeStepModel(sys, *theta, *ncrit, cfg, host)
		if err != nil {
			return err
		}
		orig, err := core.New(core.Options{Theta: *theta}, nil).CountOriginal(sys.Clone())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s groups=%-6d avgList=%-6.0f mod/orig=%.2fx  host %.2fs + pipe %.2fs + bus %.2fs = %.2fs  (measured in %v)\n",
			label, st.Groups, st.AvgList(), float64(st.Interactions)/float64(orig),
			rep.HostSeconds, rep.PipeSeconds, rep.BusSeconds, rep.TotalSeconds(),
			time.Since(t0).Round(time.Millisecond))
		sum.HostSeconds += rep.HostSeconds
		sum.PipeSeconds += rep.PipeSeconds
		sum.BusSeconds += rep.BusSeconds
		sum.Interactions += rep.Interactions
		sumOrig += orig
		samples++
		nMeasured = sys.N()
		return nil
	}

	if *in == "" && *epochs != "" {
		zs, err := parseList(*epochs, "epoch", func(f string) (float64, error) { return strconv.ParseFloat(f, 64) }, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== E4/E5: run statistics averaged over Zel'dovich epochs z=%v (grid %d, lattice %d) ==\n",
			zs, gridN, latticeN)
		for _, z := range zs {
			sys, err := realizeAt(gridN, latticeN, z, *seed)
			if err != nil {
				return err
			}
			if err := measure(sys, fmt.Sprintf("z=%-5.2g", z)); err != nil {
				return err
			}
		}
	} else {
		sys, err := loadSystem(*in, gridN, latticeN, *seed)
		if err != nil {
			return err
		}
		label := "z=24"
		if *in != "" {
			label = "snapshot"
			fmt.Fprintf(w, "== E4/E5: run statistics (snapshot %s, N=%d) ==\n", *in, sys.N())
		} else {
			fmt.Fprintf(w, "== E4/E5: run statistics (fresh z=24 ICs, grid %d, lattice %d, N=%d) ==\n",
				gridN, latticeN, sys.N())
		}
		if err := measure(sys, label); err != nil {
			return err
		}
	}
	k := float64(samples)
	rep := perf.StepReport{
		HostSeconds:  sum.HostSeconds / k,
		PipeSeconds:  sum.PipeSeconds / k,
		BusSeconds:   sum.BusSeconds / k,
		Interactions: int64(float64(sum.Interactions) / k),
	}
	orig := int64(float64(sumOrig) / k)

	fmt.Fprintf(w, "\nper-step model: interactions=%.4g avg list=%.0f (paper run average: %.0f)\n",
		float64(rep.Interactions), float64(rep.Interactions)/float64(nMeasured),
		float64(units.PaperAvgListLength))
	fmt.Fprintf(w, "modified/original operation ratio: %.2fx (paper: %.2fx)\n",
		float64(rep.Interactions)/float64(orig),
		units.PaperInteractions/units.PaperOriginalInteractions)

	model := perf.RunModel{
		Steps:             units.PaperSteps,
		PerStep:           rep,
		OriginalPerStep:   orig,
		OpsPerInteraction: cfg.OpsPerInteraction,
		Cost:              cost,
	}
	gb := model.GordonBell()
	fmt.Fprintf(w, "\n== modelled %d-step run at this N ==\n", units.PaperSteps)
	fmt.Fprintf(w, "wall clock: %.0f s (%.2f h)   paper: %.0f s (8.37 h at N=%d)\n",
		model.TotalSeconds(), model.TotalSeconds()/3600,
		float64(units.PaperWallClockSeconds), units.PaperN)
	fmt.Fprintf(w, "total interactions: %.3g   paper: %.3g\n", gb.Interactions, float64(units.PaperInteractions))
	fmt.Fprintf(w, "raw sustained:       %6.2f Gflops   paper: %.1f\n", gb.RawFlops()/1e9, float64(units.PaperRawGflops))
	fmt.Fprintf(w, "effective sustained: %6.2f Gflops   paper: %.2f\n", gb.EffectiveFlops()/1e9, float64(units.PaperEffectiveGflops))
	fmt.Fprintf(w, "price/performance:   $%5.1f/Mflops   paper: $%.1f/Mflops\n",
		gb.PricePerMflops(), float64(units.PaperPricePerMflops))

	// Paper cross-check from its own totals.
	fmt.Fprintf(w, "\n== paper's own totals re-derived (arithmetic check) ==\n")
	fmt.Fprintf(w, "%s\n", perf.PaperGordonBell().String())

	if *faults {
		return reportDegraded(w, host, *theta, *seed)
	}
	return nil
}

// reportDegraded drives the fault-tolerant offload path while one board
// dies mid-run, and shows the timing-model degradation (pipe time
// roughly doubles when the 2-board system drops to 1) next to the
// guard's recovery counters.
func reportDegraded(w io.Writer, host perf.HostModel, theta float64, seed uint64) error {
	fmt.Fprintf(w, "\n== degraded-mode offload (board 2 dies mid-run) ==\n")
	fCfg := g5.DefaultConfig()
	fCfg.Fault = &g5.FaultModel{Seed: 7, FailBoard: 2, FailAfterRuns: 200, FailSlot: 11}
	m, err := grape5.LookupModel(grape5.ModelPlummer)
	if err != nil {
		return err
	}
	sim, err := grape5.NewSimulation(m.New(4000, seed), grape5.Config{
		Theta: theta, Ncrit: 500, G: m.G, Eps: m.Eps, DT: m.DT, // priming only: no step is taken
		Engine: grape5.EngineGRAPE5, GRAPE: fCfg, Guard: true,
	})
	if err != nil {
		return err
	}
	hw := sim.Cluster().ShardSystem(0)
	for step := 1; step <= 6; step++ {
		hw.ResetCounters()
		if err := sim.Prime(); err != nil {
			return err
		}
		rep := perf.ModelStep(host, &sim.LastStats, hw.Counters())
		rep.Recovery = sim.Recovery()
		fmt.Fprintf(w, "step %d: boards=%d pipe=%.4gs bus=%.4gs  %s\n",
			step, hw.ActiveBoards(), rep.PipeSeconds, rep.BusSeconds, rep.Recovery)
	}
	fs := hw.FaultStats()
	fmt.Fprintf(w, "injected faults: bitflips=%d stuck-pipe-calls=%d bus=%d transient=%d\n",
		fs.JMemBitFlips, fs.StuckPipeCalls, fs.BusErrors, fs.Transients)
	return nil
}

// loadSystem is the snapshot source every report shares: the file named
// by in, or else fresh z=24 initial conditions of the paper's sphere.
func loadSystem(in string, gridN, latticeN int, seed uint64) (*nbody.System, error) {
	if in != "" {
		_, sys, err := snapio.ReadFile(in)
		return sys, err
	}
	return realizeAt(gridN, latticeN, units.PaperZInit, seed)
}

// realizeAt generates a Zel'dovich realisation of the paper's sphere at
// redshift z (z=0 approximates the fully clustered state; intermediate
// z interpolate, standing in for run-average statistics the paper
// measured over the live evolution).
func realizeAt(gridN, latticeN int, z float64, seed uint64) (*nbody.System, error) {
	c := cosmo.SCDM()
	ps, err := cosmo.NewPowerSpectrum(c, 1, 0.67)
	if err != nil {
		return nil, err
	}
	r, err := cosmo.GenerateSphere(cosmo.ICParams{
		Power:     ps,
		GridN:     gridN,
		LatticeN:  latticeN,
		BoxMpc:    2 * units.PaperRadiusMpc,
		RadiusMpc: units.PaperRadiusMpc,
		ZInit:     z,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	return r.System, nil
}

// parseList parses a comma-separated list of values no smaller than
// min; what names the element in the error.
func parseList[T int | float64](s, what string, parse func(string) (T, error), min T) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil || v < min {
			return nil, fmt.Errorf("bad %s %q", what, f)
		}
		out = append(out, v)
	}
	return out, nil
}
