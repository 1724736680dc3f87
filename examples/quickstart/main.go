// Quickstart: build a Plummer sphere, attach the emulated GRAPE-5,
// integrate 100 steps with the modified treecode, and check energy
// conservation — the smallest complete tour of the public API.
package main

import (
	"fmt"
	"log"

	grape5 "repro"
)

func main() {
	log.SetFlags(0)

	// A 5,000-particle Plummer sphere in model units (G = 1).
	sys := grape5.Plummer(5000, 1.0, 1.0, 1.0, 42)

	sim, err := grape5.NewSimulation(sys, grape5.Config{
		Theta:  grape5.DefaultTheta, // Barnes-Hut opening angle
		Ncrit:  500,                 // group size of the modified algorithm
		G:      1.0,                 // model units
		Eps:    0.02,                // Plummer softening
		DT:     0.005,               // leapfrog timestep
		Engine: grape5.EngineGRAPE5, // offload forces to the emulated hardware
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := sim.Prime(); err != nil {
		log.Fatal(err)
	}
	e0 := sim.Energy()
	fmt.Printf("initial: E = %.5f (virial ratio %.3f)\n", e0.Total(), e0.VirialRatio())

	if err := sim.Run(100); err != nil {
		log.Fatal(err)
	}

	e1 := sim.Energy()
	fmt.Printf("final:   E = %.5f (drift %.2e)\n",
		e1.Total(), (e1.Total()-e0.Total())/e0.Total())

	st := sim.LastStats
	fmt.Printf("last step: %d groups, %d interactions, average list %.0f\n",
		st.Groups, st.Interactions, st.AvgList())

	c := sim.HardwareCounters()
	cfg := sim.Hardware().Config()
	fmt.Printf("GRAPE-5 totals: %.3g interactions in %.3f modelled hardware seconds\n",
		float64(c.Interactions), c.HWSeconds())
	fmt.Printf("hardware-side speed: %.2f Gflops of %.2f peak\n",
		float64(c.Interactions)*float64(cfg.OpsPerInteraction)/c.HWSeconds()/1e9,
		cfg.PeakFlops()/1e9)
}
