package perf

import "math"

// ClusterBalance is the K-board extension of the §3 time balance for
// the sharded offload path (internal/g5.Cluster). The serial model
// behind StepReport.TotalSeconds assumes the paper's code structure —
// host walk and hardware strictly alternate — but the cluster's
// asynchronous double-buffering overlaps them: while K boards drain
// the current batches, the walk workers stream the next ones. Only the
// Morton sort and tree build remain serial (no group list exists
// before the tree does), so the pipelined step time is
//
//	T(K) = HostSerial + max(HostWalk, Hardware/K)
//
// with the hardware term — the critical-path shard's t_grape + t_comm
// — shrinking as 1/K while the host terms stay fixed.
type ClusterBalance struct {
	// HostSerial is the non-overlappable host time per step: Morton
	// sort plus tree build, which must finish before any group walks.
	HostSerial float64
	// HostWalk is the overlappable host time: the rest of the host step
	// (group walk, guard overhead, integration), running concurrently
	// with the hardware drain.
	HostWalk float64
	// Hardware is the one-board hardware time per step, t_grape +
	// t_comm (each shard has its own bus, so communication shards too).
	Hardware float64
}

// StepSeconds returns the predicted pipelined step time on k boards.
func (b ClusterBalance) StepSeconds(k int) float64 {
	if k < 1 {
		k = 1
	}
	return b.HostSerial + math.Max(b.HostWalk, b.Hardware/float64(k))
}

// ClusterSweep rescales a serial (one-board) analytic n_g sweep to k
// boards under the i-axis sharding of g5.Cluster: pipeline time and
// bus time both divide by k — each shard streams 1/k of the i-stream
// over its own bus — while the modelled host time is untouched. The
// returned points use the SERIAL total (host + hw/k), the conservative
// reading that ignores walk/hardware overlap; it is what shifts the
// optimal n_g, because the host-vs-hardware trade-off the optimum
// balances is now host-vs-hardware/k.
func ClusterSweep(points []SweepPoint, k int) []SweepPoint {
	if k < 1 {
		k = 1
	}
	out := make([]SweepPoint, len(points))
	for i, p := range points {
		p.Report.PipeSeconds /= float64(k)
		p.Report.BusSeconds /= float64(k)
		out[i] = p
	}
	return out
}
