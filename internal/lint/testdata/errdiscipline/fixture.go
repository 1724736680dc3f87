// Package fixture seeds discarded errors on the hardware and
// simulation surfaces, next to the sanctioned handling shapes and the
// suppression directive.
package fixture

import (
	"fmt"

	grape5 "repro"
	"repro/internal/ckpt"
	g5 "repro/internal/g5"
)

// discarded drops the error of a watched call in statement position.
func discarded(sys *g5.System, eps float64) {
	sys.SetEps(eps) // want "error from System.SetEps discarded"
}

// lostCheckpoint drops an error that can happen, the last of two
// results: a failed write leaves the run without the durable state it
// reports.
func lostCheckpoint(sim *grape5.Simulation, store *ckpt.Store) {
	sim.Checkpoint(store) // want "error from Simulation.Checkpoint discarded"
}

// deferredClose hides a Close failure behind defer.
func deferredClose(sim *grape5.Simulation) {
	defer sim.Close() // want "defer discards the error from Simulation.Close"
}

// goClose loses the error on a goroutine boundary.
func goClose(c *g5.Cluster) {
	go c.Close() // want "error from Cluster.Close discarded"
}

// handled propagates: the correct shape.
func handled(sys *g5.System, eps float64) error {
	return sys.SetEps(eps)
}

// sanctioned uses the explicit blank assignment with a justification.
func sanctioned(c *g5.Cluster) {
	// The caller's Flush already surfaced every batch error; nothing was
	// staged since, so Close has nothing to report.
	_ = c.Close()
}

// suppressed demonstrates the in-place ignore directive.
func suppressed(sys *g5.System, eps float64) {
	//lint:ignore errdiscipline fixture demonstrates the suppression policy
	sys.SetEps(eps)
}

// unwatched packages keep their usual rules: fmt's error is droppable.
func unwatched() {
	fmt.Println("ok")
}
