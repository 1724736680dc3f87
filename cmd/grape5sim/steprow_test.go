package main

import (
	"fmt"
	"testing"

	grape5 "repro"
)

func newRowSim(t *testing.T, cfg grape5.Config) *grape5.Simulation {
	t.Helper()
	m, err := grape5.LookupModel("plummer")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Theta, cfg.Ncrit, cfg.G, cfg.Eps = 0.75, 32, m.G, m.Eps
	sim, err := grape5.NewSimulation(m.New(300, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sim.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestStepRowCoversWholeBlock: under block timesteps a -log row carries
// the block's totals — every substep's groups and interactions, the same
// interval its active_frac covers — while a fixed-dt row (one force call
// per step) is what it always was: that call's statistics.
func TestStepRowCoversWholeBlock(t *testing.T) {
	sim := newRowSim(t, grape5.Config{Blocks: 4, DTMin: 0.000625, Eta: 0.02})
	rep, last := sim.LastReport, sim.LastStats
	if rep.Substeps < 2 || rep.Interactions <= last.Interactions {
		t.Fatalf("block step ran %d substeps with %d interactions (last substep %d): not a discriminating run",
			rep.Substeps, rep.Interactions, last.Interactions)
	}
	row := stepRow(sim)
	if len(row) != len(stepLogHeader) {
		t.Fatalf("row has %d columns, header %d", len(row), len(stepLogHeader))
	}
	if row[0] != "2" || row[2] != fmt.Sprint(rep.Groups) || row[3] != fmt.Sprint(rep.Interactions) {
		t.Errorf("block row = %v, want step 2 with the block totals groups=%d interactions=%d (last substep alone: %d, %d)",
			row, rep.Groups, rep.Interactions, last.Groups, last.Interactions)
	}

	sim = newRowSim(t, grape5.Config{DT: 0.005})
	last = sim.LastStats
	row = stepRow(sim)
	if row[2] != fmt.Sprint(last.Groups) || row[3] != fmt.Sprint(last.Interactions) ||
		row[4] != fmt.Sprintf("%.1f", last.AvgList()) || row[11] != "1" {
		t.Errorf("fixed-dt row = %v, want the single force call's groups=%d interactions=%d avg_list=%.1f, active_frac 1",
			row, last.Groups, last.Interactions, last.AvgList())
	}
}
