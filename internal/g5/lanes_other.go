//go:build !amd64

package g5

import "repro/internal/vec"

// No vector body off amd64: pipeline sweeps with streamJ.
const haveLanes = false

func streamJLanes(*laneBlock, []vec.V3, []float64) {
	panic("g5: streamJLanes without a lane kernel")
}
