package grape5_test

import (
	"fmt"
	"math"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/nbody"
	"repro/internal/perf"
	"repro/internal/vec"
)

// The smallest complete use of the library: build a model, attach the
// emulated GRAPE-5, integrate, check conservation.
func ExampleNewSimulation() {
	sys := grape5.Plummer(2000, 1.0, 1.0, 1.0, 42)
	sim, err := grape5.NewSimulation(sys, grape5.Config{
		Theta:  0.75,
		Ncrit:  256,
		G:      1,
		Eps:    0.02,
		DT:     0.005,
		Engine: grape5.EngineGRAPE5,
	})
	if err != nil {
		panic(err)
	}
	if err := sim.Prime(); err != nil {
		panic(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(20); err != nil {
		panic(err)
	}
	drift := math.Abs(sim.Energy().Total()-e0) / math.Abs(e0)
	fmt.Println("energy drift below 1%:", drift < 0.01)
	fmt.Println("hardware was used:", sim.HardwareCounters().Interactions > 0)
	// Output:
	// energy drift below 1%: true
	// hardware was used: true
}

// Generating the paper's class of initial conditions: a standard-CDM
// sphere at z=24 with its integration schedule to z=0.
func ExampleNewCosmoSphere() {
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{
		GridN: 8, Seed: 1,
	}, 999)
	if err != nil {
		panic(err)
	}
	fmt.Println("particles generated:", cs.Sys.N() > 200)
	fmt.Println("starts at a=0.04 (z=24):", math.Abs(cs.AInit-0.04) < 1e-12)
	fmt.Println("999 steps scheduled:", cs.Schedule.Steps == 999)
	// Output:
	// particles generated: true
	// starts at a=0.04 (z=24): true
	// 999 steps scheduled: true
}

// The paper's Figure 4 in miniature (experiment E6): evolve a
// standard-CDM sphere from z=24 to z=0 on the emulated GRAPE-5, project
// the 45×45×2.5 Mpc slab and measure the two-point correlation function
// of the final state. The paper ran N = 2,159,038 for 999 steps; for the
// image itself, write a snapshot with grape5sim -snap and render it with
// snapstat pgm.
func ExampleNewCosmoSphere_figure4() {
	const steps = 60
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: 8, Seed: 1}, steps)
	if err != nil {
		panic(err)
	}
	sim, err := grape5.NewSimulation(cs.Sys, grape5.Config{Theta: grape5.DefaultTheta, Ncrit: 256,
		Eps: cs.GridSpacing * cs.AInit, DT: cs.Schedule.DT(), Engine: grape5.EngineGRAPE5})
	if err != nil {
		panic(err)
	}
	if err := sim.Run(steps); err != nil {
		panic(err)
	}
	sys := sim.Sys
	sys.Recenter()
	slab, err := analysis.Project(sys, analysis.Figure4Slab(50), 256, 256)
	if err != nil {
		panic(err)
	}
	xi, err := analysis.CorrelationFunction(sys, vec.Zero, 40, 0.5, 30, 8, 2_000_000, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("expanded to the 50 Mpc sphere:", analysis.LagrangianRadius(sys, vec.Zero, 0.9) > 40)
	fmt.Println("particles in the slab:", slab.Kept > 0)
	fmt.Println("clustered at 0.65 Mpc, smooth at 23 Mpc:", xi[0].Xi > 100 && math.Abs(xi[len(xi)-1].Xi) < 1)
	fmt.Println("hardware time modelled:", sim.HardwareCounters().HWSeconds() > 0)
	// Output:
	// expanded to the 50 Mpc sphere: true
	// particles in the slab: true
	// clustered at 0.65 Mpc, smooth at 23 Mpc: true
	// hardware time modelled: true
}

// Two Plummer galaxies on a collision course under hierarchical block
// timesteps: the dense cores take fine steps while the halos coast on
// coarse rungs. The force evaluations saved over a shared dt_min are what
// perf.BlockCost predicts from the rung occupancy.
func ExampleMerge_collision() {
	const n, steps = 500, 20
	sys := grape5.Merge(grape5.Plummer(n, 1, 1, 1, 11), grape5.Plummer(n, 1, 1, 1, 22),
		grape5.Vec3{X: 6, Y: 1}, // separation, with an impact parameter
		grape5.Vec3{X: -0.6},    // approach speed
	)
	sys.Recenter()
	sim, err := grape5.NewSimulation(sys, grape5.Config{Theta: grape5.DefaultTheta, Ncrit: 500, G: 1, Eps: 0.03,
		Engine: grape5.EngineGRAPE5, Blocks: 4, DTMin: 0.0025, Eta: 0.02}) // a step spans 0.0025·2³
	if err != nil {
		panic(err)
	}
	// separation is the distance between the galaxies' centres, the
	// first n IDs being the first galaxy.
	separation := func() float64 {
		var d grape5.Vec3
		for i, p := range sim.Sys.Pos {
			if sim.Sys.ID[i] < n {
				d = d.Add(p)
			} else {
				d = d.Sub(p)
			}
		}
		return d.Norm() / n
	}
	if err := sim.Prime(); err != nil {
		panic(err)
	}
	e0, d0 := sim.Energy().Total(), separation()
	var activeI, substeps int64
	for s := 0; s < steps; s++ {
		if err := sim.Step(); err != nil {
			panic(err)
		}
		activeI += sim.LastReport.ActiveI
		substeps += sim.LastReport.Substeps
	}
	drift := math.Abs(sim.Energy().Total()-e0) / math.Abs(e0)
	ratio := float64(activeI) / float64(int64(sim.Sys.N())*substeps)
	model := perf.BlockCost{Occupancy: sim.RungOccupancy()}.EvalRatio()
	fmt.Println("galaxies approached:", separation() < d0)
	fmt.Println("energy drift below 1e-3:", drift < 1e-3)
	fmt.Printf("force evaluations against a shared dt_min: %.2f\n", ratio)
	fmt.Println("within 1% of perf.BlockCost:", math.Abs(ratio-model) < 0.01*model)
	// Output:
	// galaxies approached: true
	// energy drift below 1e-3: true
	// force evaluations against a shared dt_min: 0.49
	// within 1% of perf.BlockCost: true
}

// The treecode on GRAPE-5 keeps sub-percent forces on a clustered
// system: a cosmological sphere is evolved to z=0 on the emulated
// GRAPE-5, then its accelerations from one more treecode evaluation are
// compared with exact direct summation.
func Example_treeForceAccuracy() {
	const steps = 60
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: 16, Seed: 1}, steps)
	if err != nil {
		panic(err)
	}
	eps := cs.GridSpacing / 8
	cfg := grape5.Config{Theta: grape5.DefaultTheta, Ncrit: 256, Eps: eps, DT: cs.Schedule.DT(), Engine: grape5.EngineGRAPE5}
	sim, err := grape5.NewSimulation(cs.Sys, cfg)
	if err != nil {
		panic(err)
	}
	if err := sim.Run(steps); err != nil {
		panic(err)
	}
	final := sim.Sys
	final.Recenter()
	ref := final.Clone()
	nbody.DirectForces(ref, grape5.G, eps)

	// One treecode force evaluation on a copy of the final snapshot.
	treeSim, err := grape5.NewSimulation(final.Clone(), cfg)
	if err != nil {
		panic(err)
	}
	if err := treeSim.Prime(); err != nil {
		panic(err)
	}
	es, err := analysis.CompareForces(treeSim.Sys, ref)
	if err != nil {
		panic(err)
	}
	fmt.Println("tree+GRAPE-5 RMS force error below 1%:", es.RMS < 0.01)
	// Output:
	// tree+GRAPE-5 RMS force error below 1%: true
}

// Finding collapsed structures in a snapshot.
func ExampleFindHalos() {
	a := grape5.Plummer(400, 1, 0.1, 1, 7)
	b := grape5.Plummer(400, 1, 0.1, 1, 8)
	merged := grape5.Merge(a, b, grape5.Vec3{X: 30}, grape5.Vec3{})
	halos, err := grape5.FindHalos(merged, 0.2, 50)
	if err != nil {
		panic(err)
	}
	fmt.Println("halos found:", len(halos))
	// Output:
	// halos found: 2
}
