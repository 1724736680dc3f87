package perf

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/units"
)

// TestPaperCost is experiment E7: §4's cost arithmetic.
func TestPaperCost(t *testing.T) {
	c := PaperCostModel()
	if got := c.TotalJYE(); got != 4.7e6 {
		t.Errorf("total = %v JYE, want 4.7M", got)
	}
	dollars := c.TotalDollars()
	if math.Abs(dollars-40900) > 100 {
		t.Errorf("total = $%v, paper quotes ~$40,900", dollars)
	}
}

// TestPaperGordonBell verifies the §5 headline arithmetic from the
// paper's own totals: 36.4 raw Gflops, 5.92 effective Gflops,
// $7.0/Mflops.
func TestPaperGordonBell(t *testing.T) {
	gb := PaperGordonBell()
	if raw := gb.RawFlops() / 1e9; math.Abs(raw-units.PaperRawGflops) > 0.4 {
		t.Errorf("raw = %.2f Gflops, paper quotes %.1f", raw, units.PaperRawGflops)
	}
	if eff := gb.EffectiveFlops() / 1e9; math.Abs(eff-units.PaperEffectiveGflops) > 0.1 {
		t.Errorf("effective = %.2f Gflops, paper quotes %.2f", eff, units.PaperEffectiveGflops)
	}
	if ppm := gb.PricePerMflops(); math.Abs(ppm-units.PaperPricePerMflops) > 0.2 {
		t.Errorf("price/perf = $%.2f/Mflops, paper quotes $%.1f", ppm, units.PaperPricePerMflops)
	}
}

// TestDS10CalibratedToHeadline checks the host model against its
// anchor: at the headline run's traversal statistics the modelled step
// must total ≈30.17 s (paper: 30,141 s / 999 steps), with the GRAPE
// side supplied by the g5 timing model.
func TestDS10CalibratedToHeadline(t *testing.T) {
	const nGroups = 1080 // 2,159,038 / ~2000
	perStepInteractions := float64(units.PaperInteractions) / float64(units.PaperSteps)
	st := &core.Stats{
		N:            units.PaperN,
		Groups:       nGroups,
		Interactions: int64(perStepInteractions),
		ListSum:      int64(nGroups * units.PaperAvgListLength),
		// Node visits: roughly 3 opening tests per list entry is what
		// our traversal measures on clustered snapshots.
		NodesVisited: int64(3 * nGroups * units.PaperAvgListLength),
	}
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < nGroups; gi++ {
		sys.ChargeOnly(2000, int(units.PaperAvgListLength))
	}
	rep := ModelStep(DS10(), st, sys.Counters())
	wantStep := units.PaperWallClockSeconds / units.PaperSteps
	got := rep.TotalSeconds()
	t.Logf("modelled step: host %.2f s + pipe %.2f s + bus %.2f s = %.2f s (paper %.2f s)",
		rep.HostSeconds, rep.PipeSeconds, rep.BusSeconds, got, wantStep)
	if math.Abs(got-wantStep)/wantStep > 0.10 {
		t.Errorf("modelled step %.2f s differs from paper's %.2f s by >10%%", got, wantStep)
	}
}

func TestHostModelScaling(t *testing.T) {
	h := DS10()
	small := &core.Stats{N: 1000, ListSum: 10000, NodesVisited: 30000}
	big := &core.Stats{N: 2000, ListSum: 20000, NodesVisited: 60000}
	ts, tb := h.StepSeconds(small), h.StepSeconds(big)
	if tb <= ts {
		t.Errorf("host model not monotone in problem size: %v vs %v", ts, tb)
	}
	// Doubling every count slightly more than doubles time (N log N).
	if tb > 2.2*ts {
		t.Errorf("host model superlinearity too strong: %v vs %v", tb, ts)
	}
}

func TestStepReportTotal(t *testing.T) {
	r := StepReport{HostSeconds: 1, PipeSeconds: 2, BusSeconds: 0.5}
	if r.TotalSeconds() != 3.5 {
		t.Errorf("total = %v", r.TotalSeconds())
	}
}

func TestRunModelExtrapolation(t *testing.T) {
	m := RunModel{
		Steps:             999,
		PerStep:           StepReport{HostSeconds: 15, PipeSeconds: 10, BusSeconds: 5, Interactions: 2.9e10},
		OriginalPerStep:   4.69e9,
		OpsPerInteraction: 38,
		Cost:              PaperCostModel(),
	}
	if math.Abs(m.TotalSeconds()-999*30) > 1e-9 {
		t.Errorf("total = %v", m.TotalSeconds())
	}
	gb := m.GordonBell()
	if math.Abs(gb.Interactions-999*2.9e10) > 1 {
		t.Errorf("interactions = %v", gb.Interactions)
	}
	if gb.RawFlops() <= gb.EffectiveFlops() {
		t.Error("raw must exceed effective")
	}
}

func TestPricePerMflopsInverse(t *testing.T) {
	c := PaperCostModel()
	// Double the speed, half the price per Mflops.
	p1 := c.PricePerMflops(1e9)
	p2 := c.PricePerMflops(2e9)
	if math.Abs(p1-2*p2) > 1e-9 {
		t.Errorf("price/perf not inverse in speed: %v vs %v", p1, p2)
	}
}
