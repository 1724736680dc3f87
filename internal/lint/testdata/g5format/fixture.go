// Package fixture seeds ad-hoc float bit manipulation. The test
// type-checks it under a physics import path outside internal/g5.
package fixture

import (
	"math"

	g5 "repro/internal/g5"
)

// truncate forks the number-format model outside format.go.
func truncate(v float64) float64 {
	b := math.Float64bits(v)                // want "math.Float64bits outside internal/g5/format.go"
	return math.Float64frombits(b &^ 0x3ff) // want "math.Float64frombits outside internal/g5/format.go"
}

// viaHelpers rounds through the sanctioned helper and uses the result.
func viaHelpers(v float64) float64 {
	return g5.RoundMantissa(v, 14)
}
