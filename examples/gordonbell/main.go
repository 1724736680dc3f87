// Gordonbell: the paper's headline accounting in one program. Runs a
// scaled-down version of the 1999 Gordon Bell price/performance entry
// — cosmological sphere, modified treecode, emulated GRAPE-5 — and then
// prints the full metrics table: measured interactions, modelled
// DS10+GRAPE-5 wall clock, raw and effective Gflops, and $/Mflops,
// side by side with the paper's published numbers.
package main

import (
	"flag"
	"fmt"
	"log"

	grape5 "repro"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	var (
		grid  = flag.Int("grid", 16, "IC grid (power of two); the paper's scale is ~160")
		steps = flag.Int("steps", 100, "timesteps (paper: 999)")
		ncrit = flag.Int("ncrit", grape5.DefaultNcrit, "group bound n_g (paper optimum ~2000)")
	)
	flag.Parse()

	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: *grid, Seed: 1}, *steps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scaled Gordon Bell run: N=%d (paper: %d), %d steps (paper: %d)\n\n",
		cs.Sys.N(), units.PaperN, *steps, units.PaperSteps)

	sim, err := grape5.NewSimulation(cs.Sys, grape5.Config{
		Theta:  grape5.DefaultTheta,
		Ncrit:  *ncrit,
		Eps:    cs.GridSpacing * cs.AInit,
		DT:     cs.Schedule.DT(),
		Engine: grape5.EngineGRAPE5,
	})
	if err != nil {
		log.Fatal(err)
	}

	host := perf.DS10()
	var hostSeconds float64
	var origTotal int64
	for s := 1; s <= *steps; s++ {
		if err := sim.Step(); err != nil {
			log.Fatal(err)
		}
		st := sim.LastStats
		hostSeconds += host.StepSeconds(&st)
		if s == 1 || s == *steps/2 || s == *steps {
			// Original-algorithm count on representative snapshots —
			// the paper did exactly this with five snapshot files.
			orig, err := core.New(core.Options{Theta: grape5.DefaultTheta}, nil).CountOriginal(sim.Sys.Clone())
			if err != nil {
				log.Fatal(err)
			}
			origTotal += orig
			fmt.Printf("step %4d: avg list %.0f, original-alg count %.3g\n",
				s, st.AvgList(), float64(orig))
		}
	}
	origPerStep := float64(origTotal) / 3

	c := sim.HardwareCounters()
	wall := hostSeconds + c.HWSeconds()
	gb := perf.GordonBell{
		Interactions:         float64(sim.TotalInteractions),
		OriginalInteractions: origPerStep * float64(*steps),
		WallClockSeconds:     wall,
		OpsPerInteraction:    units.PaperOpsPerInteraction,
		Cost:                 perf.PaperCostModel(),
	}
	paper := perf.PaperGordonBell()

	fmt.Printf("\n%-28s %15s %15s\n", "metric", "this run", "paper")
	fmt.Printf("%-28s %15d %15d\n", "particles", sim.Sys.N(), units.PaperN)
	fmt.Printf("%-28s %15d %15d\n", "steps", *steps, units.PaperSteps)
	fmt.Printf("%-28s %15.3g %15.3g\n", "interactions", gb.Interactions, paper.Interactions)
	fmt.Printf("%-28s %15.3g %15.3g\n", "original-alg interactions", gb.OriginalInteractions, paper.OriginalInteractions)
	fmt.Printf("%-28s %14.0fs %14.0fs\n", "modelled wall clock", wall, paper.WallClockSeconds)
	fmt.Printf("%-28s %15.2f %15.1f\n", "raw Gflops", gb.RawFlops()/1e9, paper.RawFlops()/1e9)
	fmt.Printf("%-28s %15.2f %15.2f\n", "effective Gflops", gb.EffectiveFlops()/1e9, paper.EffectiveFlops()/1e9)
	fmt.Printf("%-28s %14.1f$ %14.1f$\n", "price per Mflops", gb.PricePerMflops(), paper.PricePerMflops())
	fmt.Println("\n(price/performance converges toward the paper's $7/Mflops as N grows:")
	fmt.Println(" small problems cannot fill 13,000-entry interaction lists; see")
	fmt.Println(" cmd/perfreport -full for the paper-scale accounting)")
}
