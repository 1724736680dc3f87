package perf

import (
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
)

// DirectStepModel returns the modelled time balance of one force step
// computed by direct O(N²) summation on the GRAPE hardware — the
// classic GRAPE workload (all particles loaded once into the particle
// memory, i-particles swept in pipeline-sized chunks). It is the
// baseline the paper's §1 motivates the treecode against: direct
// summation wins at small N (no tree overhead, perfect pipelining) and
// loses catastrophically at the paper's N.
func DirectStepModel(n int, host HostModel) (StepReport, error) {
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		return StepReport{}, err
	}
	// One j-load of the whole system into the particle memory, then
	// ceil(n/vp) pipeline sweeps of i.
	const vp = g5.VirtualPipesPerBoard
	for lo := 0; lo < n; lo += vp {
		hi := lo + vp
		if hi > n {
			hi = n
		}
		//lint:ignore g5contract perf replays schedules through the timing model; ChargeOnly is its charter
		sys.ChargeOnly(hi-lo, n)
	}
	c := sys.Counters()
	// ChargeOnly re-charges the j-upload per call; correct to a single
	// upload by subtracting the duplicates.
	sweeps := (n + vp - 1) / vp
	dupJBytes := int64(sweeps-1) * int64(n) * g5.BytesPerJ
	busSeconds := c.BusSeconds - float64(dupJBytes)/g5.BusBandwidth

	// Host side: only per-particle integration work (no tree).
	hostSeconds := host.ParticleCoeff * float64(n)
	return StepReport{
		HostSeconds:  hostSeconds,
		PipeSeconds:  c.PipeSeconds,
		BusSeconds:   busSeconds,
		Interactions: int64(n) * int64(n-1),
	}, nil
}

// TreeStepModel replays one modified-treecode force step through the
// timing model: it walks a clone of the snapshot for real (s is not
// modified), charges every group's offload to a fresh GRAPE system
// through a ScheduleEngine, and prices the
// traversal on the host model. It returns the modelled time balance
// beside the traversal statistics it was priced from — the one replay
// behind the §3 n_g sweep and the §5 headline accounting, both in
// BENCH_treecode.json. The walk is single-worker so the result is a
// pure function of the arguments: the counters' float seconds are
// summed in group order, not in the order concurrent workers happen to
// charge them.
func TreeStepModel(s *nbody.System, theta float64, ncrit int, host HostModel) (StepReport, *core.Stats, error) {
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		return StepReport{}, nil, err
	}
	tc := core.New(core.Options{Theta: theta, Ncrit: ncrit, Workers: 1}, NewScheduleEngine(sys))
	st, err := tc.ComputeForces(s.Clone())
	if err != nil {
		return StepReport{}, nil, err
	}
	return ModelStep(host, st, sys.Counters()), st, nil
}
