//go:build !amd64

package g5

import "repro/internal/vec"

// No vector body off amd64: pipeline sweeps with streamJ.
const hostLanes = portableBody

func streamJLanes4(*laneBlock, int, []vec.V3, []float64) {
	panic("g5: streamJLanes4 without a lane kernel")
}

func streamJLanes8(*laneBlock, []vec.V3, []float64) {
	panic("g5: streamJLanes8 without a lane kernel")
}
