// Collision: two Plummer-sphere "galaxies" on a head-on parabolic-ish
// encounter, integrated with the treecode on the emulated GRAPE-5 —
// the kind of galaxy-interaction workload that motivated the GRAPE
// machines alongside cosmology.
//
// With -blocks the run switches to hierarchical block timesteps: the
// dense merging cores take fine steps while the halo coasts on coarse
// rungs, and the run reports how much force work the hierarchy saved
// over a shared dt at the same resolution.
package main

import (
	"flag"
	"fmt"
	"log"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/perf"
)

func main() {
	log.SetFlags(0)
	var (
		n      = flag.Int("n", 4000, "particles per galaxy")
		steps  = flag.Int("steps", 400, "timesteps")
		sep    = flag.Float64("sep", 6.0, "initial separation")
		vrel   = flag.Float64("v", 0.6, "approach speed")
		blocks = flag.Int("blocks", 0, "block-timestep rung levels (0 = shared dt)")
		dtmin  = flag.Float64("dtmin", 0.00125, "finest block timestep (-blocks)")
		eta    = flag.Float64("eta", 0.02, "rung criterion accuracy (-blocks)")
	)
	flag.Parse()

	// Two equal galaxies in model units, approaching along x with a
	// small impact parameter along y.
	a := grape5.Plummer(*n, 1, 1, 1, 11)
	b := grape5.Plummer(*n, 1, 1, 1, 22)
	sys := grape5.Merge(a, b,
		grape5.Vec3{X: *sep, Y: 1.0},
		grape5.Vec3{X: -*vrel},
	)
	sys.Recenter()

	cfg := grape5.Config{
		Theta:  grape5.DefaultTheta,
		Ncrit:  500,
		G:      1,
		Eps:    0.03,
		DT:     0.01,
		Engine: grape5.EngineGRAPE5,
	}
	if *blocks > 0 {
		// One block spans dtmin·2^(blocks-1); DT is inherited from it.
		cfg.DT = 0
		cfg.Blocks, cfg.DTMin, cfg.Eta = *blocks, *dtmin, *eta
	}
	sim, err := grape5.NewSimulation(sys, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		log.Fatal(err)
	}
	e0 := sim.Energy()
	if occ := sim.RungOccupancy(); occ != nil {
		fmt.Printf("initial rung occupancy: %v\n", occ)
	}

	var activeI, substeps int64
	for s := 1; s <= *steps; s++ {
		if err := sim.Step(); err != nil {
			log.Fatal(err)
		}
		activeI += sim.LastReport.ActiveI
		substeps += sim.LastReport.Substeps
		if s%(*steps/4) == 0 {
			// Distance between the two galaxies' centres (by ID halves).
			var c1, c2 grape5.Vec3
			var n1, n2 int
			half := int64(*n)
			for i := range sim.Sys.Pos {
				if sim.Sys.ID[i] < half {
					c1 = c1.Add(sim.Sys.Pos[i])
					n1++
				} else {
					c2 = c2.Add(sim.Sys.Pos[i])
					n2++
				}
			}
			d := c1.Scale(1 / float64(n1)).Sub(c2.Scale(1 / float64(n2))).Norm()
			fmt.Printf("step %4d: galaxy separation %.2f, avg list %.0f\n",
				s, d, sim.LastStats.AvgList())
		}
	}

	e1 := sim.Energy()
	fmt.Printf("\nenergy drift over the encounter: %.2e\n",
		(e1.Total()-e0.Total())/e0.Total())
	if occ := sim.RungOccupancy(); occ != nil && substeps > 0 {
		cost := perf.BlockCost{Occupancy: occ}
		measured := float64(activeI) / (float64(sim.Sys.N()) * float64(substeps))
		fmt.Printf("final rung occupancy:   %v\n", occ)
		fmt.Printf("force-eval ratio vs shared dt_min: %.3f measured, %.3f from final occupancy\n",
			measured, cost.EvalRatio())
	}

	sim.Sys.Recenter()
	proj, err := analysis.Project(sim.Sys, analysis.SlabSpec{
		XMin: -8, XMax: 8, YMin: -8, YMax: 8, ZMin: -8, ZMax: 8}, 128, 128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merger remnant (projected):")
	fmt.Println(proj.ASCII(64))
}
