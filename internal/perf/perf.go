// Package perf implements the paper's performance and cost accounting:
// the flop-counting convention, the DS10 host-time model, the Gordon
// Bell metrics (sustained Gflops, effective Gflops, price/performance)
// and the cost model of §4.
//
// The paper's wall-clock numbers come from hardware we do not have, so
// the host side is modelled: an analytic cost model of the COMPAQ
// AlphaServer DS10 (Alpha 21264 @ 466 MHz) whose three coefficients are
// calibrated so the modelled headline run reproduces the paper's
// 30,141 s total. The GRAPE side comes from the g5 timing model, which
// is anchored in hardware constants (clocks, pipe counts, bus). The
// resulting model is predictive in the quantity that matters for §3:
// the RATIO of host to GRAPE time as a function of n_g.
package perf

import (
	"math"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/units"
)

// CostModel is the §4 price list.
type CostModel struct {
	// BoardJYE is the price of one GRAPE-5 board in Japanese yen.
	BoardJYE float64
	// Boards is the number of boards purchased.
	Boards int
	// HostJYE is the price of the host computer (DS10 with 512 MB and
	// the C++ compiler).
	HostJYE float64
	// YenPerDollar is the exchange rate used in the paper.
	YenPerDollar float64
}

// PaperCostModel returns §4's numbers: 2 boards at 1.65 M JYE, host at
// 1.4 M JYE, 115 JYE/$.
func PaperCostModel() CostModel {
	return CostModel{BoardJYE: 1.65e6, Boards: 2, HostJYE: 1.4e6, YenPerDollar: 115}
}

// TotalJYE returns the system cost in yen (4.7 M JYE for the paper).
func (c CostModel) TotalJYE() float64 {
	return c.BoardJYE*float64(c.Boards) + c.HostJYE
}

// TotalDollars returns the system cost in dollars (~$40,900).
func (c CostModel) TotalDollars() float64 { return c.TotalJYE() / c.YenPerDollar }

// PricePerMflops returns dollars per Mflops for a sustained speed in
// flops/s.
func (c CostModel) PricePerMflops(flopsPerSecond float64) float64 {
	return c.TotalDollars() / (flopsPerSecond / 1e6)
}

// HostModel is the analytic cost model of the host computer's per-step
// work. Times are seconds of modelled host time:
//
//	T = BuildCoeff · N·log2(N)            (tree construction)
//	  + WalkCoeff  · ListSum              (interaction-list assembly)
//	  + VisitCoeff · NodesVisited         (opening tests / stack work)
//	  + ParticleCoeff · N                 (time integration + bookkeeping)
type HostModel struct {
	Name          string
	BuildCoeff    float64
	WalkCoeff     float64
	VisitCoeff    float64
	ParticleCoeff float64
}

// DS10 returns the host model of the COMPAQ AlphaServer DS10
// (Alpha 21264, 466 MHz). Coefficients are calibrated so the modelled
// headline run (N = 2,159,038, n_g ≈ 2000, average list 13,431, GRAPE
// side ≈ 14.9 s/step from the g5 timing model) totals the paper's
// 30.17 s/step: host ≈ 15.3 s/step split as build ≈ 6.6 s,
// walk+visits ≈ 7.4 s, integration ≈ 1.3 s. In cycle terms the
// coefficients correspond to ~68 cycles per build op, ~100 cycles per
// list entry, ~47 cycles per node visit and ~280 cycles per particle
// update — ordinary magnitudes for a 1999 RISC workstation running
// pointer-chasing tree code.
func DS10() HostModel {
	return HostModel{
		Name:          "COMPAQ AlphaServer DS10 (21264/466MHz)",
		BuildCoeff:    1.45e-7,
		WalkCoeff:     2.2e-7,
		VisitCoeff:    1.0e-7,
		ParticleCoeff: 6.0e-7,
	}
}

// StepSeconds returns the modelled host seconds for one force step with
// the given traversal statistics.
func (h HostModel) StepSeconds(st *core.Stats) float64 {
	n := float64(st.N)
	return h.BuildSeconds(st.N) +
		h.WalkCoeff*float64(st.ListSum) +
		h.VisitCoeff*float64(st.NodesVisited) +
		h.ParticleCoeff*n
}

// BuildSeconds returns the tree-construction share of the modelled host
// step time for n particles — the model-side counterpart of the
// measured t_build split (Morton sort + tree build).
func (h HostModel) BuildSeconds(n int) float64 {
	fn := float64(n)
	return h.BuildCoeff * fn * math.Log2(math.Max(fn, 2))
}

// StepReport is the modelled time balance of one force step.
type StepReport struct {
	// HostSeconds is the modelled host time (build + walk + integrate).
	HostSeconds float64
	// HostBuildSeconds is the tree-construction share of HostSeconds —
	// the t_build split, which parallel tree construction attacks while
	// the rest of the host time shrinks with n_g.
	HostBuildSeconds float64
	// PipeSeconds and BusSeconds are the GRAPE pipeline and
	// host-interface times from the g5 timing model.
	PipeSeconds, BusSeconds float64
	// Interactions is the pairwise interaction count of the step.
	Interactions int64
}

// TotalSeconds returns the modelled wall-clock of the step. Host work
// and GRAPE work are serialised, as in the paper's code (the host
// walks the tree for group k+1 only after collecting forces for k; the
// overlap GRAPE-4-style drivers exploited is not used by the GRAPE-5
// treecode).
func (r StepReport) TotalSeconds() float64 { return r.HostSeconds + r.PipeSeconds + r.BusSeconds }

// ModelStep combines the host model with the g5 counters accumulated
// during one step (counters must be reset around the step).
func ModelStep(h HostModel, st *core.Stats, c g5.Counters) StepReport {
	return StepReport{
		HostSeconds:      h.StepSeconds(st),
		HostBuildSeconds: h.BuildSeconds(st.N),
		PipeSeconds:      c.PipeSeconds,
		BusSeconds:       c.BusSeconds,
		Interactions:     st.Interactions,
	}
}

// GordonBell computes the paper's §5 headline metrics.
type GordonBell struct {
	// Interactions is the total modified-algorithm interaction count.
	Interactions float64
	// OriginalInteractions is the interaction count the original
	// algorithm would have needed (the paper's correction basis).
	OriginalInteractions float64
	// WallClockSeconds is the total run time.
	WallClockSeconds float64
	// OpsPerInteraction is the flop convention (38).
	OpsPerInteraction int
	// Cost is the price list.
	Cost CostModel
}

// RawFlops returns the sustained speed counting the modified
// algorithm's operations (the paper's 36.4 Gflops figure).
func (g GordonBell) RawFlops() float64 {
	return g.Interactions * float64(g.OpsPerInteraction) / g.WallClockSeconds
}

// EffectiveFlops returns the sustained speed counting only the
// operations the original algorithm would need — the paper's
// conservative 5.92 Gflops figure.
func (g GordonBell) EffectiveFlops() float64 {
	return g.OriginalInteractions * float64(g.OpsPerInteraction) / g.WallClockSeconds
}

// PricePerMflops returns the headline metric: dollars per effective
// Mflops ($7.0 in the paper).
func (g GordonBell) PricePerMflops() float64 {
	return g.Cost.PricePerMflops(g.EffectiveFlops())
}

// PaperGordonBell returns the paper's own totals, for cross-checking
// the arithmetic.
func PaperGordonBell() GordonBell {
	return GordonBell{
		Interactions:         units.PaperInteractions,
		OriginalInteractions: units.PaperOriginalInteractions,
		WallClockSeconds:     units.PaperWallClockSeconds,
		OpsPerInteraction:    units.PaperOpsPerInteraction,
		Cost:                 PaperCostModel(),
	}
}
