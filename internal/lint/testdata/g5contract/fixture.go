// Package fixture seeds violations of the GRAPE-5 host-library
// contract: register-level access to g5.System outside internal/g5.
// The test type-checks it under a cmd-layer import path.
package fixture

import (
	"repro/internal/core"
	g5 "repro/internal/g5"
	"repro/internal/vec"
)

// registerAccess reaches past the library surface into the data path.
func registerAccess(sys *g5.System, x []vec.V3, m []float64, acc []vec.V3, pot []float64) error {
	return sys.Compute(x, x, m, acc, pot) // want "register-level access to g5.System.Compute"
}

// chargeOnly touches the timing-model entry point directly.
func chargeOnly(sys *g5.System) {
	sys.ChargeOnly(8, 1024) // want "register-level access to g5.System.ChargeOnly"
}

// excludeBoard drives fault recovery from outside the guard; the
// blank assignment does not shield the register access.
func excludeBoard(sys *g5.System) {
	_ = sys.SetBoardExcluded(0, true) // want "register-level access to g5.System.SetBoardExcluded"
}

// wellOrdered drives the hardware through the library surface and is
// clean.
func wellOrdered(req *core.Request) error {
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		return err
	}
	if err := sys.SetScale(-1, 1); err != nil {
		return err
	}
	g5.NewEngine(sys, 1).Accumulate(req)
	return nil
}
