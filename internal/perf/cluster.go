package perf

import (
	"math"

	"repro/internal/obs"
)

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
	// HostWalk is the overlappable host time: group walk plus guard
	// overhead, running concurrently with the hardware drain.
	HostWalk float64
	// Hardware is the one-board hardware time per step, t_grape +
	// t_comm (each shard has its own bus, so communication shards too).
	Hardware float64
}

// ClusterBalanceFromObs extracts the balance terms from a measured
// single-board (K=1) step report.
func ClusterBalanceFromObs(r obs.StepReport) ClusterBalance {
	return ClusterBalance{
		HostSerial: r.Phases.MortonSort + r.Phases.TreeBuild,
		HostWalk:   r.Phases.GroupWalk + r.Phases.Guard,
		Hardware:   r.TGrape + r.TComm,
	}
}

// StepSeconds returns the predicted pipelined step time on k boards.
func (b ClusterBalance) StepSeconds(k int) float64 {
	if k < 1 {
		k = 1
	}
	return b.HostSerial + math.Max(b.HostWalk, b.Hardware/float64(k))
}

// Speedup returns the predicted step-time speedup of k boards over one.
func (b ClusterBalance) Speedup(k int) float64 {
	t1 := b.StepSeconds(1)
	tk := b.StepSeconds(k)
	if tk <= 0 {
		return 1
	}
	return t1 / tk
}

// SaturationShards returns the smallest board count at which the host
// walk becomes the bottleneck — the K beyond which more boards buy no
// step time. A walk-free balance never saturates; math.MaxInt is
// returned.
func (b ClusterBalance) SaturationShards() int {
	if b.Hardware <= 0 {
		return 1
	}
	if b.HostWalk <= 0 {
		return math.MaxInt
	}
	k := int(math.Ceil(b.Hardware / b.HostWalk))
	if k < 1 {
		k = 1
	}
	return k
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

// OptimalNcritK returns the optimal group size for k boards, derived
// from a serial sweep via ClusterSweep. Cheaper hardware time moves
// the balance toward larger groups (shorter host walks, longer lists),
// so the optimum is nondecreasing in k — the K-board restatement of
// the paper's n_g ≈ 2000 result.
func OptimalNcritK(points []SweepPoint, k int) int {
	best := Optimum(ClusterSweep(points, k))
	if best == nil {
		return 0
	}
	return best.Ncrit
}
