package integrate

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

// directActiveForce mirrors nbody.DirectForces for a marked i-subset,
// leaving inactive particles' Acc/Pot untouched — the ActiveForceFunc
// contract the treecode path also honours.
func directActiveForce(g, eps float64) ActiveForceFunc {
	return func(s *nbody.System, active []bool, nActive int) error {
		n := s.N()
		eps2 := eps * eps
		for i := 0; i < n; i++ {
			if !active[s.ID[i]] {
				continue
			}
			var ax, ay, az, pot float64
			pi := s.Pos[i]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				dx := s.Pos[j].X - pi.X
				dy := s.Pos[j].Y - pi.Y
				dz := s.Pos[j].Z - pi.Z
				r2 := dx*dx + dy*dy + dz*dz + eps2
				inv := 1 / math.Sqrt(r2)
				inv3 := inv / r2
				mj := s.Mass[j]
				ax += mj * inv3 * dx
				ay += mj * inv3 * dy
				az += mj * inv3 * dz
				pot -= mj * inv
			}
			s.Acc[i] = vec.V3{X: g * ax, Y: g * ay, Z: g * az}
			s.Pot[i] = g * pot
		}
		return nil
	}
}

// forceCounter counts the force callbacks a BlockLeapfrog makes after
// priming — one per substep — and the particles they evaluate.
type forceCounter struct{ substeps, activeI int64 }

func (c *forceCounter) full(f ForceFunc) ForceFunc {
	return func(s *nbody.System) error {
		c.substeps++
		c.activeI += int64(s.N())
		return f(s)
	}
}

func (c *forceCounter) active(f ActiveForceFunc) ActiveForceFunc {
	return func(s *nbody.System, active []bool, nActive int) error {
		c.substeps++
		c.activeI += int64(nActive)
		return f(s, active, nActive)
	}
}

func requireSameSystems(t *testing.T, want, got *nbody.System, what string) {
	t.Helper()
	for i := range want.Pos {
		if want.Pos[i] != got.Pos[i] || want.Vel[i] != got.Vel[i] ||
			want.Acc[i] != got.Acc[i] || want.Pot[i] != got.Pot[i] ||
			want.ID[i] != got.ID[i] {
			t.Fatalf("%s: particle %d diverged:\n  pos %v vs %v\n  vel %v vs %v",
				what, i, want.Pos[i], got.Pos[i], want.Vel[i], got.Vel[i])
		}
	}
}

// TestBlockSingleRungMatchesLeapfrog is the determinism anchor: with
// MaxRung=0 every substep spans the whole block with the full set
// active, and the scheduler must replay Leapfrog's arithmetic
// instruction for instruction — bitwise.
func TestBlockSingleRungMatchesLeapfrog(t *testing.T) {
	const g, eps, dt, steps = 1.0, 0.05, 0.01, 25
	ref := nbody.Plummer(150, 1, 1, g, rng.New(7))
	lf, err := NewLeapfrog(dt, directForce(g, eps))
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Run(ref, steps); err != nil {
		t.Fatal(err)
	}

	blk := nbody.Plummer(150, 1, 1, g, rng.New(7))
	var c forceCounter
	bl, err := NewBlockLeapfrog(
		RungCriterion{Eta: 0.2, Eps: eps, DTMin: dt, MaxRung: 0},
		c.full(directForce(g, eps)), c.active(directActiveForce(g, eps)))
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Prime(blk); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		c = forceCounter{}
		if err := bl.Step(blk); err != nil {
			t.Fatal(err)
		}
		if c.substeps != 1 || c.activeI != int64(blk.N()) {
			t.Fatalf("single-rung step ran %d substeps with %d active, want 1 full substep",
				c.substeps, c.activeI)
		}
	}
	requireSameSystems(t, ref, blk, "single rung")
}

// TestBlockPinnedTopRungMatchesLeapfrog pins every particle to the top
// of a 4-level ladder (an enormous η makes the criterion ask for a huge
// dt, which clamps to MaxRung) and checks the whole block collapses to
// one full-set substep bitwise equal to a global leapfrog at the span.
func TestBlockPinnedTopRungMatchesLeapfrog(t *testing.T) {
	const g, eps, dtmin, steps = 1.0, 0.05, 0.0025, 12
	crit := RungCriterion{Eta: 1e12, Eps: eps, DTMin: dtmin, MaxRung: 3}

	ref := nbody.Plummer(120, 1, 1, g, rng.New(11))
	lf, err := NewLeapfrog(crit.Span(), directForce(g, eps))
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Run(ref, steps); err != nil {
		t.Fatal(err)
	}

	blk := nbody.Plummer(120, 1, 1, g, rng.New(11))
	var c forceCounter
	bl, err := NewBlockLeapfrog(crit, c.full(directForce(g, eps)), c.active(directActiveForce(g, eps)))
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Prime(blk); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		c = forceCounter{}
		if err := bl.Step(blk); err != nil {
			t.Fatal(err)
		}
		if c.substeps != 1 {
			t.Fatalf("pinned top rung ran %d substeps, want 1", c.substeps)
		}
	}
	requireSameSystems(t, ref, blk, "pinned top rung")
}

// TestBlockMultiRungEnergy drives a Plummer sphere through a genuinely
// hierarchical schedule (several occupied rungs, per-substep active
// subsets) and checks energy conservation plus the force-evaluation
// saving the hierarchy exists to buy.
func TestBlockMultiRungEnergy(t *testing.T) {
	const g, eps = 1.0, 0.02
	s := nbody.Plummer(250, 1, 1, g, rng.New(4))
	e0 := s.KineticEnergy() + nbody.PotentialEnergy(s, g, eps)
	crit := RungCriterion{Eta: 0.05, Eps: eps, DTMin: 0.001, MaxRung: 4}
	var c forceCounter
	bl, err := NewBlockLeapfrog(crit, c.full(directForce(g, eps)), c.active(directActiveForce(g, eps)))
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Prime(s); err != nil {
		t.Fatal(err)
	}
	c = forceCounter{}
	steps := int(math.Round(0.5 / crit.Span()))
	for i := 0; i < steps; i++ {
		if err := bl.Step(s); err != nil {
			t.Fatal(err)
		}
	}
	activeI, substeps := c.activeI, c.substeps
	occupied := 0
	for _, c := range bl.Occupancy() {
		if c > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("degenerate schedule: only %d occupied rungs (occupancy %v)", occupied, bl.Occupancy())
	}
	// A shared-dt run at the minimum rung would evaluate N particles on
	// every tick; the hierarchy must do strictly better.
	globalEvals := int64(s.N()) * int64(steps) * (int64(1) << uint(crit.MaxRung))
	if activeI >= globalEvals {
		t.Fatalf("no active-set saving: %d evals vs %d global", activeI, globalEvals)
	}
	if substeps <= int64(steps) {
		t.Fatalf("schedule never split a block: %d substeps over %d steps", substeps, steps)
	}
	e1 := s.KineticEnergy() + nbody.PotentialEnergy(s, g, eps)
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 1e-3 {
		t.Errorf("block-timestep energy drift = %v", rel)
	}
}

// TestBlockNilForceActiveFallsBack: without an ActiveForceFunc every
// substep takes the full-force path — correct, just without the win.
func TestBlockNilForceActiveFallsBack(t *testing.T) {
	const g, eps = 1.0, 0.02
	s := nbody.Plummer(100, 1, 1, g, rng.New(5))
	bl, err := NewBlockLeapfrog(
		RungCriterion{Eta: 0.05, Eps: eps, DTMin: 0.001, MaxRung: 3},
		directForce(g, eps), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := bl.Step(s); err != nil {
			t.Fatal(err)
		}
	}
	if bl.Tick() != 0 {
		t.Fatalf("tick %d after whole blocks", bl.Tick())
	}
}

// TestBlockRejectsNonFiniteAcceleration poisons two particles: rung
// assignment refuses the step and names the first in index order.
func TestBlockRejectsNonFiniteAcceleration(t *testing.T) {
	s := nbody.Plummer(32, 1, 1, 1, rng.New(6))
	poison := func(sys *nbody.System) error {
		nbody.DirectForces(sys, 1, 0.05)
		sys.Acc[13] = vec.V3{X: math.NaN()}
		sys.Acc[20] = vec.V3{Y: math.Inf(1)}
		return nil
	}
	bl, err := NewBlockLeapfrog(
		RungCriterion{Eta: 0.2, Eps: 0.05, DTMin: 0.01, MaxRung: 2},
		poison, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = bl.Step(s)
	if err == nil {
		t.Fatal("NaN acceleration survived rung assignment")
	}
	if want := fmt.Sprintf("|a|=NaN for particle id %d at tick 0", s.ID[13]); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the first poisoned particle (%q)", err, want)
	}
}

func TestSharedStepPick(t *testing.T) {
	s := nbody.New(2)
	s.Mass[0], s.Mass[1] = 1, 1
	s.Acc[0] = vec.V3{X: 4}
	s.Acc[1] = vec.V3{X: 1}
	c := RungCriterion{Eta: 0.2, Eps: 0.01}
	// dt = 0.2 * sqrt(0.01/4) = 0.2*0.05 = 0.01.
	got, err := c.SharedDT(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.01) > 1e-14 {
		t.Errorf("dt = %v, want 0.01", got)
	}
}

func TestTimestepPickRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := nbody.New(2)
		s.Mass[0], s.Mass[1] = 1, 1
		s.Acc[0] = vec.V3{X: 1}
		s.Acc[1] = vec.V3{Y: bad}
		c := RungCriterion{Eta: 0.2, Eps: 0.01}
		if dt, err := c.SharedDT(s, 0, 1); err == nil {
			t.Errorf("SharedDT accepted |a| with component %v: dt = %v", bad, dt)
		}
	}
}

func TestTimestepCaps(t *testing.T) {
	s := nbody.New(1)
	s.Mass[0] = 1
	s.Acc[0] = vec.V3{X: 1e-12}
	c := RungCriterion{Eta: 0.2, Eps: 1}
	if got, err := c.SharedDT(s, 0, 0.5); err != nil || got != 0.5 {
		t.Errorf("uncapped dt leaked: %v (err %v)", got, err)
	}
	s.Acc[0] = vec.V3{X: 1e12}
	if got, err := c.SharedDT(s, 1e-3, 0.5); err != nil || got != 1e-3 {
		t.Errorf("floor not applied: %v (err %v)", got, err)
	}
}

func TestTimestepFreeSystem(t *testing.T) {
	s := nbody.New(1)
	s.Mass[0] = 1
	if got, err := (RungCriterion{Eps: 1}).SharedDT(s, 0, 0.25); err != nil || got != 0.25 {
		t.Errorf("free-system dt = %v (err %v)", got, err)
	}
	if got, err := (RungCriterion{}).SharedDT(s, 0, 0.25); err != nil || got != 0.25 {
		t.Errorf("unsoftened dt = %v (err %v)", got, err)
	}
}

func TestBlockValidation(t *testing.T) {
	if _, err := NewBlockLeapfrog(RungCriterion{DTMin: 0, MaxRung: 1}, directForce(1, 0), nil); err == nil {
		t.Error("DTMin=0 accepted")
	}
	if _, err := NewBlockLeapfrog(RungCriterion{DTMin: 0.1, MaxRung: -1}, directForce(1, 0), nil); err == nil {
		t.Error("negative MaxRung accepted")
	}
	if _, err := NewBlockLeapfrog(RungCriterion{DTMin: 0.1, MaxRung: MaxRungLimit + 1}, directForce(1, 0), nil); err == nil {
		t.Error("absurd MaxRung accepted")
	}
	if _, err := NewBlockLeapfrog(RungCriterion{DTMin: 0.1, MaxRung: 2}, nil, nil); err == nil {
		t.Error("nil force accepted")
	}

	bl, err := NewBlockLeapfrog(RungCriterion{DTMin: 0.1, MaxRung: 2}, directForce(1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.SetState([]uint8{0, 1, 3}, 0); err == nil {
		t.Error("rung above MaxRung accepted")
	}
	if err := bl.SetState([]uint8{0, 1, 2}, 4); err == nil {
		t.Error("tick outside block accepted")
	}
	if err := bl.SetState([]uint8{0, 2, 2}, 2); err == nil {
		t.Error("mid-step tick accepted for a rung-2 particle")
	}
	if err := bl.SetState([]uint8{0, 1, 2}, 0); err != nil {
		t.Errorf("boundary state rejected: %v", err)
	}
	if got := bl.Rungs(); len(got) != 3 || got[1] != 1 {
		t.Errorf("restored rungs = %v", got)
	}
}

func TestBlockPrimedFlag(t *testing.T) {
	calls := 0
	count := func(s *nbody.System) error {
		calls++
		for i := range s.Acc {
			s.Acc[i] = vec.V3{X: 1}
		}
		return nil
	}
	bl, err := NewBlockLeapfrog(RungCriterion{Eta: 0.2, DTMin: 0.01, MaxRung: 0}, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Primed() {
		t.Fatal("fresh scheduler reports primed")
	}
	s := nbody.New(4)
	// A resume restores post-force accelerations plus the rung state and
	// marks the scheduler primed: no re-prime force call.
	if err := bl.SetState(make([]uint8, 4), 0); err != nil {
		t.Fatal(err)
	}
	bl.SetPrimed(true)
	if err := bl.Step(s); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("primed Step made %d force calls, want exactly the in-step one", calls)
	}
}

// TestStepAllocsBlockLeapfrog is the integrator core's allocation gate:
// a primed multi-rung Step whose force callbacks allocate nothing must
// allocate nothing itself, on any substep. Workers is set as a caller
// with wide machines would set it: a rung pass fanned out to four
// goroutines costs 6 objects a substep, 48 a Step here, and fails.
func TestStepAllocsBlockLeapfrog(t *testing.T) {
	const n = 8192
	s := nbody.New(n)
	for i := range s.Mass {
		s.Mass[i] = 1.0 / n
	}
	// |a| = 4^(ID mod 4) under η = eps = 1 asks for dt = 2^-(ID mod 4):
	// four occupied rungs, eight substeps a block.
	set := func(sys *nbody.System, i int) {
		sys.Acc[i] = vec.V3{X: float64(int64(1) << (2 * (sys.ID[i] % 4)))}
	}
	calls := 0
	full := func(sys *nbody.System) error {
		calls++
		for i := range sys.Acc {
			set(sys, i)
		}
		return nil
	}
	active := func(sys *nbody.System, on []bool, _ int) error {
		calls++
		for i := range sys.Acc {
			if on[sys.ID[i]] {
				set(sys, i)
			}
		}
		return nil
	}
	bl, err := NewBlockLeapfrog(RungCriterion{Eta: 1, Eps: 1, DTMin: 0.125, MaxRung: 3}, full, active)
	if err != nil {
		t.Fatal(err)
	}
	bl.Workers = 4
	if err := bl.Step(s); err != nil {
		t.Fatal(err)
	}
	calls = 0
	allocs := testing.AllocsPerRun(5, func() {
		if err := bl.Step(s); err != nil {
			t.Fatal(err)
		}
	})
	if calls != 6*8 {
		t.Fatalf("%d force calls over 6 blocks, want 8 substeps each", calls)
	}
	if allocs != 0 {
		t.Fatalf("primed multi-rung Step allocates %.1f objects/run, want 0", allocs)
	}
}

// FuzzBlockSchedule checks the scheduler's two conservation laws under
// arbitrary rung ladders and restored states: the clock returns to the
// block boundary having advanced exactly the span, and no particle ever
// misses (or double-receives) a kick. With a constant unit acceleration
// and a dyadic DTMin every half-kick is exact in binary, so the total
// velocity gain per block must equal the span exactly — any skipped or
// duplicated kick shows up as a ULP-exact mismatch.
func FuzzBlockSchedule(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 0, 1}, uint8(0))
	f.Add(uint8(0), []byte{0, 0, 0}, uint8(0))
	f.Add(uint8(4), []byte{4, 4, 4, 4}, uint8(2))
	f.Add(uint8(5), []byte{0, 5, 1, 4, 2, 3, 0, 5}, uint8(4))
	f.Fuzz(func(t *testing.T, maxRung uint8, rungBytes []byte, tickSeed uint8) {
		if maxRung > 6 || len(rungBytes) == 0 || len(rungBytes) > 64 {
			t.Skip()
		}
		const dtmin = 0.0009765625 // 2^-10: keeps every kick sum exact
		crit := RungCriterion{Eta: 1e12, Eps: 1, DTMin: dtmin, MaxRung: int(maxRung)}
		n := len(rungBytes)
		rungs := make([]uint8, n)
		minRung := maxRung
		for i, rb := range rungBytes {
			rungs[i] = rb % (maxRung + 1)
			if rungs[i] < minRung {
				minRung = rungs[i]
			}
		}
		// A restored tick must be a common step boundary: quantize the
		// fuzzed tick to the coarsest occupied rung's step.
		span := int64(1) << uint(maxRung)
		var maxOcc uint8
		for _, k := range rungs {
			if k > maxOcc {
				maxOcc = k
			}
		}
		tick := (int64(tickSeed) % span) &^ ((int64(1) << uint(maxOcc)) - 1)

		constant := func(s *nbody.System) error {
			for i := range s.Acc {
				s.Acc[i] = vec.V3{X: 1}
			}
			return nil
		}
		s := nbody.New(n)
		for i := range s.Mass {
			s.Mass[i] = 1
		}
		var bl *BlockLeapfrog
		activeConstant := func(sys *nbody.System, active []bool, nActive int) error {
			got := 0
			for id, on := range active {
				if on {
					got++
					// Never skip a kick: the marked set at an eval tick is
					// exactly the set of particles at a step boundary.
					if bl.Tick()&((int64(1)<<uint(bl.rungs[id]))-1) != 0 {
						t.Fatalf("particle %d force-evaluated mid-step at tick %d (rung %d)", id, bl.Tick(), bl.rungs[id])
					}
				}
			}
			if got != nActive {
				t.Fatalf("mask count %d != nActive %d", got, nActive)
			}
			for i := range sys.Acc {
				if active[sys.ID[i]] {
					sys.Acc[i] = vec.V3{X: 1}
				}
			}
			return nil
		}
		bl, err := NewBlockLeapfrog(crit, constant, activeConstant)
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.SetState(rungs, tick); err != nil {
			t.Skip() // fuzzed state not a valid boundary; covered by TestBlockValidation
		}
		if err := constant(s); err != nil {
			t.Fatal(err)
		}
		bl.SetPrimed(true)
		v0 := make([]float64, n)
		for i := range v0 {
			v0[i] = s.Vel[i].X
		}
		if err := bl.Step(s); err != nil {
			t.Fatal(err)
		}
		if bl.Tick() != 0 {
			t.Fatalf("clock lost sync: tick %d after a full block (started at %d)", bl.Tick(), tick)
		}
		// Under constant acceleration each particle's velocity gain is the
		// total time its kicks covered: exactly the remaining span.
		want := dtmin * float64(span-tick)
		for i := range s.Vel {
			if got := s.Vel[i].X - v0[i]; got != want {
				t.Fatalf("particle %d kick time %v != %v: a kick was skipped or doubled (rungs %v, tick0 %d)",
					i, got, want, rungs, tick)
			}
		}
	})
}
