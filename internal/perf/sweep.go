package perf

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
)

// ScheduleEngine is a core.Engine that evaluates nothing: it replays
// the traversal's offload schedule through the GRAPE-5 timing model.
// It makes full-scale performance experiments (the §3 n_g sweep, the
// §5 headline accounting) cheap: the interaction counts and modelled
// times are exact while the arithmetic — whose results the sweep does
// not need — is skipped.
type ScheduleEngine struct {
	mu  sync.Mutex
	sys *g5.System
}

// NewScheduleEngine wraps a g5 system for timing-only accounting.
func NewScheduleEngine(sys *g5.System) *ScheduleEngine {
	return &ScheduleEngine{sys: sys}
}

// Accumulate implements core.Engine.
func (e *ScheduleEngine) Accumulate(req *core.Request) {
	e.mu.Lock()
	//lint:ignore g5contract perf replays schedules through the timing model; ChargeOnly is its charter
	e.sys.ChargeOnly(len(req.IPos), req.J.N)
	e.mu.Unlock()
}

// SweepPoint is one n_g sample of the §3 experiment.
type SweepPoint struct {
	// Ncrit is the group-size bound n_g.
	Ncrit int
	// Groups, Interactions, AvgList, ListSum and NodesVisited summarise
	// the traversal.
	Groups       int
	Interactions int64
	AvgList      float64
	ListSum      int64
	NodesVisited int64
	// Report is the modelled time balance for one force step.
	Report StepReport
}

// NgSweep models one step's time balance (TreeStepModel) on the given
// host for each n_g value. s is not modified.
func NgSweep(s *nbody.System, theta float64, ncrits []int, host HostModel) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(ncrits))
	for _, ng := range ncrits {
		rep, st, err := TreeStepModel(s, theta, ng, host)
		if err != nil {
			return nil, fmt.Errorf("perf: sweep at ncrit=%d: %w", ng, err)
		}
		points = append(points, SweepPoint{
			Ncrit:        ng,
			Groups:       st.Groups,
			Interactions: st.Interactions,
			AvgList:      st.AvgList(),
			ListSum:      st.ListSum,
			NodesVisited: st.NodesVisited,
			Report:       rep,
		})
	}
	return points, nil
}

// Optimum returns the sweep point with the smallest modelled total
// time, or nil for an empty sweep.
func Optimum(points []SweepPoint) *SweepPoint {
	var best *SweepPoint
	for i := range points {
		if best == nil || points[i].Report.TotalSeconds() < best.Report.TotalSeconds() {
			best = &points[i]
		}
	}
	return best
}

// RunModel extrapolates a whole simulation's metrics from a modelled
// per-step time balance, the way one predicts a 999-step run from
// representative steps.
type RunModel struct {
	// Steps is the number of timesteps (paper: 999).
	Steps int
	// PerStep is the modelled time balance of one force step.
	PerStep StepReport
	// OriginalPerStep is the original-algorithm interaction count for
	// one step (the effective-operation basis).
	OriginalPerStep int64
	// OpsPerInteraction is the flop convention.
	OpsPerInteraction int
	// Cost is the price list.
	Cost CostModel
}

// TotalSeconds returns the modelled wall clock of the full run.
func (m RunModel) TotalSeconds() float64 {
	return float64(m.Steps) * m.PerStep.TotalSeconds()
}

// GordonBell returns the headline metrics of the modelled run.
func (m RunModel) GordonBell() GordonBell {
	return GordonBell{
		Interactions:         float64(m.PerStep.Interactions) * float64(m.Steps),
		OriginalInteractions: float64(m.OriginalPerStep) * float64(m.Steps),
		WallClockSeconds:     m.TotalSeconds(),
		OpsPerInteraction:    m.OpsPerInteraction,
		Cost:                 m.Cost,
	}
}
