// Command perfreport prints the paper's evaluation. Every number is a
// section of BENCH_treecode.json, which `perfreport record` writes at
// fixed inputs; the other forms evaluate the same sections (record.go)
// at their flags and print them, so without flags they print the
// record's numbers.
//
//	perfreport           E1 peak (§2), E7 cost (§4), E8 particle mass,
//	                     E4/E5 headline run and $/Mflops (§5), direct
//	                     summation (§1); -full is grid 128 with lattice
//	                     160, N = 2,144,432 ≈ the paper's N
//	perfreport ngsweep   E3 optimal group size n_g (§3)
//	perfreport accuracy  E2 pairwise and total force error (§2)
//	perfreport record > BENCH_treecode.json
//
// The traversal runs for real over a fresh z=24 realisation of the
// paper's sphere or a snapshot file; host time is the calibrated DS10
// model, GRAPE time the g5 timing model, and the run totals extrapolate
// the per-step model to the paper's 999 steps.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"

	grape5 "repro"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/perf"
	"repro/internal/snapio"
	"repro/internal/units"
)

const usage = `usage:
  perfreport [flags]           E1/E4/E5/E7/E8 headline report and direct summation
  perfreport ngsweep [flags]   E3: time balance per group size n_g
  perfreport accuracy [flags]  E2: force error tables
  perfreport record            BENCH_treecode.json v4 on stdout: E1/E7/E8 constants, E2 at the accuracy
                               defaults, the §3 balance over n_g and K, the E4/E5 headline at grid 32,
                               the paper's own totals and direct summation at each N
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
		grid  = fs.Int("grid", recordCosmoGrid, "IC grid per dimension for the measured traversal")
		full  = fs.Bool("full", false, "run the traversal at the paper's N: grid 128, lattice 160, N=2,144,432 (needs ~2 GB and minutes)")
		in    = fs.String("in", "", "evolved snapshot to measure on (more faithful list lengths than fresh ICs); excludes -full")
		theta = fs.Float64("theta", grape5.DefaultTheta, "opening parameter")
		ncrit = fs.Int("ncrit", grape5.DefaultNcrit, "group bound n_g (paper optimum)")
		seed  = fs.Uint64("seed", recordSeed, "IC seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := refuse(fs, thetaRule(*theta), rule{*in != "" && *full, "-in excludes -full"}); err != nil {
		return err
	}
	gridN, latticeN := *grid, 0
	if *full {
		// π/6 · 160³ ≈ 2.14e6 particles ≈ the paper's N, sampled from a
		// 128³ Fourier grid.
		gridN, latticeN = 128, 160
	}
	source, model := fresh(gridN, latticeN, *seed), "cosmo"
	if *in != "" {
		source, model = "snapshot "+*in, "snapshot"
	}
	sys, err := loadSystem(*in, gridN, latticeN, *seed)
	if err != nil {
		return err
	}
	cfg, host, cost := g5.DefaultConfig(), perf.DS10(), perf.PaperCostModel()
	rec := record{Constants: constants(cfg, cost), PaperTotals: gordonBell(perf.PaperGordonBell())}
	if rec.Headline, err = headline(source, sys, *theta, *ncrit, cfg, host, cost); err != nil {
		return err
	}
	if rec.Direct, err = direct([]recordDirect{{Model: model, N: sys.N()},
		{Model: "paper", N: units.PaperN}}, cfg, host); err != nil {
		return err
	}
	printReport(w, rec)
	return nil
}

// printReport prints a record's constants, headline, direct-summation
// rows and the paper's own totals.
func printReport(w io.Writer, rec record) {
	c, h, run, p := rec.Constants, rec.Headline, rec.Headline.Run, rec.PaperTotals
	fmt.Fprintf(w, "== E1: theoretical peak (paper §2) ==\n"+
		"peak: %d pipes x %.0f MHz x %d ops = %.2f Gflops   (paper: 109.44)\n\n",
		c.PhysicalPipes, c.ClockHz/1e6, c.OpsPerInteraction, c.PeakFlops/1e9)
	fmt.Fprintf(w, "== E7: system cost (paper §4) ==\n%.1f M JYE = $%.0f   (paper: 4.7 M JYE, ~$40,900)\n\n",
		c.CostJYE/1e6, c.CostDollars)
	fmt.Fprintf(w, "== E8: particle mass (paper §5) ==\n"+
		"Omega=1, h=0.5, 50 Mpc sphere, N=%d: m = %.3g Msun   (paper: 1.7e10)\n\n", units.PaperN, c.ParticleMassMsun)

	st := h.Step
	fmt.Fprintf(w, "== E4/E5: run statistics (%s, N=%d, theta=%.2f, n_g=%d) ==\n", h.Source, h.N, h.Theta, st.Ncrit)
	fmt.Fprintf(w, "per step: groups=%d avgList=%.0f host %.2fs + pipe %.2fs + bus %.2fs = %.2fs\n",
		st.Groups, st.AvgList, st.THostModel, st.TGrape, st.TComm, st.TTotalModel)
	fmt.Fprintf(w, "modified/original operation ratio: %.2fx (paper: %.2fx at a run-average list of %.0f)\n",
		run.ModifiedOverOriginal, units.PaperInteractions/units.PaperOriginalInteractions, float64(units.PaperAvgListLength))
	fmt.Fprintf(w, "\n== modelled %d-step run at this N ==\n", h.Steps)
	fmt.Fprintf(w, "wall clock: %.0f s (%.2f h)   paper: %.0f s (8.37 h at N=%d)\n",
		run.WallSeconds, run.WallSeconds/3600, float64(units.PaperWallClockSeconds), units.PaperN)
	fmt.Fprintf(w, "total interactions: %.3g   paper: %.3g\n", run.Interactions, float64(units.PaperInteractions))
	fmt.Fprintf(w, "raw sustained:       %6.2f Gflops   paper: %.1f\n", run.RawGflops, float64(units.PaperRawGflops))
	fmt.Fprintf(w, "effective sustained: %6.2f Gflops   paper: %.2f\n", run.EffectiveGflops, float64(units.PaperEffectiveGflops))
	fmt.Fprintf(w, "price/performance:   $%5.1f/Mflops   paper: $%.1f/Mflops\n",
		run.DollarsPerMflops, float64(units.PaperPricePerMflops))

	fmt.Fprintf(w, "\n== direct summation on the same hardware (paper §1) ==\n")
	for _, d := range rec.Direct {
		fmt.Fprintf(w, "%-8s N=%-8d %.4g s/step (%.3g min)\n", d.Model, d.N, d.TDirectModel, d.TDirectModel/60)
	}
	fmt.Fprintf(w, "\n== paper's own totals re-derived (arithmetic check) ==\n"+
		"raw %.2f Gflops, effective %.2f Gflops, $%.1f/Mflops (system $%.0f)\n",
		p.RawGflops, p.EffectiveGflops, p.DollarsPerMflops, c.CostDollars)
}

// rule is one input check: broken refuses the input, msg says why.
type rule struct {
	broken bool
	msg    string
}

// refuse is the one validation of the section inputs: a usage error for
// the first broken rule, before any section prices an input it cannot.
func refuse(fs *flag.FlagSet, rules ...rule) error {
	for _, r := range rules {
		if r.broken {
			return fmt.Errorf("%s: %s\n%s", fs.Name(), r.msg, usage)
		}
	}
	return nil
}

func thetaRule(theta float64) rule {
	return rule{!(theta > 0) || math.IsInf(theta, 1), "-theta must be finite and > 0"}
}

// fresh names the z=24 realisation of the paper's sphere loadSystem
// makes without a file.
func fresh(gridN, latticeN int, seed uint64) string {
	return fmt.Sprintf("fresh z=24 ICs, grid %d, lattice %d, seed %d", gridN, latticeN, seed)
}

// loadSystem is the snapshot source every report shares: the file named
// by in, or else fresh z=24 initial conditions of the paper's sphere.
func loadSystem(in string, gridN, latticeN int, seed uint64) (*nbody.System, error) {
	if in != "" {
		_, sys, err := snapio.ReadFile(in)
		return sys, err
	}
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: gridN, LatticeN: latticeN, Seed: seed}, 1)
	if err != nil {
		return nil, err
	}
	return cs.Sys, nil
}
