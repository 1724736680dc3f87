// Cosmology: the paper's headline experiment in miniature. Generate a
// standard-CDM sphere (the COSMICS-substitute Zel'dovich initial
// conditions), integrate it from z=24 to z=0 with the treecode on the
// emulated GRAPE-5, and render the Figure-4 slab plus the two-point
// correlation function of the final state.
//
// The paper ran N = 2,159,038 for 999 steps; this example defaults to a
// 16³ Fourier grid (≈2,100 particles) and 250 steps so it finishes in
// seconds. Crank -grid and -steps for more structure.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	var (
		grid  = flag.Int("grid", 16, "IC grid per dimension (power of two)")
		steps = flag.Int("steps", 250, "timesteps from z=24 to z=0 (paper: 999)")
		seed  = flag.Uint64("seed", 1, "realisation seed")
		out   = flag.String("pgm", "", "optional PGM output for the Figure-4 slab")
	)
	flag.Parse()

	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: *grid, Seed: *seed}, *steps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sphere: N=%d particles of %.3g x 1e10 Msun, z=24 -> 0 in %d steps\n",
		cs.Sys.N(), cs.ParticleMass, *steps)

	sim, err := grape5.NewSimulation(cs.Sys, grape5.Config{
		Theta:  grape5.DefaultTheta,
		Ncrit:  256,
		Eps:    cs.GridSpacing * cs.AInit, // initial physical spacing
		DT:     cs.Schedule.DT(),
		Engine: grape5.EngineGRAPE5,
	})
	if err != nil {
		log.Fatal(err)
	}
	for s := 1; s <= *steps; s++ {
		if err := sim.Step(); err != nil {
			log.Fatal(err)
		}
		if s%(*steps/5) == 0 {
			fmt.Printf("  step %4d/%d: avg list %.0f\n", s, *steps, sim.LastStats.AvgList())
		}
	}

	// z=0 analysis: recentre, render the paper's 45x45x2.5 Mpc slab.
	sys := sim.Sys
	sys.Recenter()
	proj, err := analysis.Project(sys, analysis.Figure4Slab(50), 256, 256)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure-4 slab: %d particles, clustering contrast %.1f\n",
		proj.Kept, proj.ClusteringContrast())
	fmt.Println(proj.ASCII(64))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := proj.WritePGM(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	// Two-point correlation function of the final state.
	xi, err := analysis.CorrelationFunction(sys, vec.Zero, 40, 0.5, 30, 8, 2_000_000, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("two-point correlation function at z=0:")
	for _, b := range xi {
		fmt.Printf("  xi(%5.2f Mpc) = %8.2f\n", b.RMid, b.Xi)
	}
	fmt.Printf("\nGRAPE-5 modelled hardware time for the whole run: %.2f s\n",
		sim.HardwareCounters().HWSeconds())
}
