package integrate

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/nbody"
)

// ActiveForceFunc computes accelerations and potentials for exactly the
// particles whose ID is marked in activeByID, leaving every other
// particle's Acc/Pot slot untouched (an inactive particle's stored
// acceleration is its state from its own last force evaluation and is
// still owed to its closing kick). nActive is the number of marked IDs,
// so implementations can size scratch and short-circuit the full-set
// case without rescanning the mask.
type ActiveForceFunc func(s *nbody.System, activeByID []bool, nActive int) error

// MaxRungLimit bounds the rung ladder: span = 2^MaxRung ticks, and a
// ladder deeper than this means dt_min was chosen absurdly small
// relative to the block span rather than a real workload.
const MaxRungLimit = 30

// RungCriterion is the one timestep criterion, dt = η·sqrt(eps/|a|):
// per particle it maps an acceleration to a power-of-two rung
// (Fukushige & Kawai's hierarchical block steps), and for the system it
// picks the adaptive shared step (SharedDT). Rung k carries
// dt = DTMin·2^k; rung MaxRung spans the whole block.
type RungCriterion struct {
	// Eta is the dimensionless accuracy parameter (default 0.2).
	Eta float64
	// Eps is the softening length entering dt_i = η·sqrt(eps/|a_i|).
	Eps float64
	// DTMin is the rung-0 step, the quantum of the block clock.
	DTMin float64
	// MaxRung is the top rung; the block span is DTMin·2^MaxRung.
	MaxRung int
}

// Validate rejects criteria that cannot drive the block clock.
func (c RungCriterion) Validate() error {
	if !(c.DTMin > 0) || math.IsInf(c.DTMin, 0) {
		return fmt.Errorf("integrate: rung criterion needs DTMin > 0, got %v", c.DTMin)
	}
	if c.MaxRung < 0 || c.MaxRung > MaxRungLimit {
		return fmt.Errorf("integrate: MaxRung %d outside [0, %d]", c.MaxRung, MaxRungLimit)
	}
	return nil
}

// DT returns rung k's step, an exact power-of-two scaling of DTMin.
func (c RungCriterion) DT(k int) float64 {
	return c.DTMin * float64(int64(1)<<uint(k))
}

// Span returns the block span DTMin·2^MaxRung, the outer step size a
// block run advances per Step.
func (c RungCriterion) Span() float64 { return c.DT(c.MaxRung) }

// dtFor is the criterion dt = η·sqrt(eps/|a|) for a finite
// acceleration norm, the standard collisionless softened-force form
// (e.g. GADGET's ErrTolIntAccuracy); +Inf where there is no intrinsic
// scale (|a| = 0 or no softening).
func (c RungCriterion) dtFor(aNorm float64) float64 {
	if aNorm == 0 || c.Eps <= 0 {
		return math.Inf(1)
	}
	eta := c.Eta
	if eta == 0 {
		eta = 0.2
	}
	return eta * math.Sqrt(c.Eps/aNorm)
}

// rungFor maps a finite acceleration norm to the largest rung whose
// step fits under dtFor, floored at rung 0 (a particle wanting a
// smaller step than DTMin runs at DTMin: the floor trades accuracy for
// a bounded clock, like SharedDT's dtMin). Callers guard non-finite
// norms.
func (c RungCriterion) rungFor(aNorm float64) int {
	dt := c.dtFor(aNorm)
	for k := c.MaxRung; k > 0; k-- {
		if c.DT(k) <= dt {
			return k
		}
	}
	return 0
}

// SharedDT picks the adaptive shared step: dtFor(max_i |a_i|) clamped
// to [dtMin, dtMax] (a free system runs at dtMax). Accelerations must be
// current. A non-finite acceleration — a faulted board surviving guard
// fallback, an IC bug — is a loud error: silently folding NaN/Inf into
// the step size would poison the clock and every position after it.
func (c RungCriterion) SharedDT(s *nbody.System, dtMin, dtMax float64) (float64, error) {
	maxA := 0.0
	for i, a := range s.Acc {
		n := a.Norm()
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return 0, fmt.Errorf("integrate: non-finite acceleration |a|=%v for particle %d (id %d): refusing to derive a timestep from corrupt forces", n, i, s.ID[i])
		}
		maxA = max(maxA, n)
	}
	return max(min(c.dtFor(maxA), dtMax), dtMin), nil
}

// BlockLeapfrog advances a system under hierarchical power-of-two block
// timesteps. The block clock counts integer ticks of DTMin; a particle
// on rung k is at a step boundary exactly when tick ≡ 0 (mod 2^k). One
// Step call runs a full block of 2^MaxRung ticks:
//
//	for each substep:
//	  open:  half-kick every particle at a boundary (its own dt/2)
//	  drift: ALL particles by d·DTMin, d = ticks to the next boundary
//	  force: evaluate only the particles closing at the new tick
//	  close: half-kick the closing set, then reassign their rungs
//
// Rung reassignment is capped so a particle's next step stays aligned
// to the clock (new rung ≤ trailing-zeros(tick)); decreases are always
// legal. Every particle closes at the block boundary, so each Step ends
// fully synchronized — the state a checkpoint captures.
//
// Determinism anchor: with every particle pinned to a single rung, each
// substep opens and closes the full set, the drift spans the whole
// block in one MulAdd, and forces flow through the full-set Force path
// — instruction-for-instruction the same arithmetic as Leapfrog.Step.
// That is how a shared timestep runs on this core: MaxRung = 0 with
// Crit.DTMin as the step, constant for a fixed dt or rewritten by the
// caller from RungCriterion.SharedDT between Steps for an adaptive one
// (every Step ends synchronized at tick 0, so the tick quantum may
// change there).
type BlockLeapfrog struct {
	// Crit assigns rungs from accelerations.
	Crit RungCriterion
	// Force computes the full force set (priming and all-active substeps).
	Force ForceFunc
	// ForceActive computes forces for a marked subset. Nil falls back to
	// Force on every substep — correct but without the active-set win.
	ForceActive ActiveForceFunc
	// Workers is ignored: rung assignment is one serial pass. The field
	// stays for callers that still set it.
	Workers int

	rungs  []uint8 // particle ID -> rung
	active []bool  // particle ID -> at a step boundary this tick
	tick   int64   // block clock, in DTMin units, ∈ [0, 2^MaxRung)
	primed bool
	idsOK  bool // dense-ID validation done for the current system size
}

// NewBlockLeapfrog validates the criterion and force callbacks.
func NewBlockLeapfrog(crit RungCriterion, force ForceFunc, forceActive ActiveForceFunc) (*BlockLeapfrog, error) {
	if err := crit.Validate(); err != nil {
		return nil, err
	}
	if force == nil {
		return nil, fmt.Errorf("integrate: block leapfrog needs a force function")
	}
	return &BlockLeapfrog{Crit: crit, Force: force, ForceActive: forceActive}, nil
}

// Tick returns the block clock in DTMin units.
func (b *BlockLeapfrog) Tick() int64 { return b.tick }

// Primed reports whether initial forces and rungs are in place.
func (b *BlockLeapfrog) Primed() bool { return b.primed }

// SetPrimed overrides the primed flag for checkpoint resume: the
// restored accelerations are the post-force state, so re-priming would
// double-count the initial evaluation. A multi-rung run pairs it with
// SetState; a single-rung run has no rung state to restore.
func (b *BlockLeapfrog) SetPrimed(primed bool) { b.primed = primed }

// Rungs returns a copy of the per-particle rung assignment, indexed by
// particle ID.
func (b *BlockLeapfrog) Rungs() []uint8 {
	out := make([]uint8, len(b.rungs))
	copy(out, b.rungs)
	return out
}

// Occupancy returns the particle count per rung, indexed 0..MaxRung.
func (b *BlockLeapfrog) Occupancy() []int64 {
	occ := make([]int64, b.Crit.MaxRung+1)
	for _, k := range b.rungs {
		occ[k]++
	}
	return occ
}

// SetState installs a checkpointed rung assignment and block clock.
// The tick must be a step boundary for every rung present (a resumed
// system's accelerations are each particle's last closing evaluation,
// which is only coherent at a common boundary); checkpoints are taken
// at block boundaries (tick 0), which trivially satisfy this.
func (b *BlockLeapfrog) SetState(rungs []uint8, tick int64) error {
	span := int64(1) << uint(b.Crit.MaxRung)
	if tick < 0 || tick >= span {
		return fmt.Errorf("integrate: restored tick %d outside block [0, %d)", tick, span)
	}
	for id, k := range rungs {
		if int(k) > b.Crit.MaxRung {
			return fmt.Errorf("integrate: restored rung %d for particle %d exceeds MaxRung %d", k, id, b.Crit.MaxRung)
		}
		if tick&((int64(1)<<uint(k))-1) != 0 {
			return fmt.Errorf("integrate: restored tick %d is mid-step for particle %d on rung %d", tick, id, k)
		}
	}
	b.rungs = append(b.rungs[:0], rungs...)
	b.ensure(len(rungs))
	b.tick = tick
	b.idsOK = false
	return nil
}

// ensure sizes the per-ID scratch for n particles.
func (b *BlockLeapfrog) ensure(n int) {
	if cap(b.rungs) < n {
		b.rungs = append(b.rungs[:cap(b.rungs)], make([]uint8, n-cap(b.rungs))...)
	}
	b.rungs = b.rungs[:n]
	if cap(b.active) < n {
		b.active = append(b.active[:cap(b.active)], make([]bool, n-cap(b.active))...)
	}
	b.active = b.active[:n]
}

// validateIDs checks the dense-ID contract the per-ID state depends
// on: every ID in [0, N), no duplicates. Morton sorting permutes the
// index order, so rungs/active are keyed by ID, not index.
func (b *BlockLeapfrog) validateIDs(s *nbody.System) error {
	n := len(s.Pos)
	seen := b.active // scratch; markActive rewrites it before use
	for i := range seen {
		seen[i] = false
	}
	for i := 0; i < n; i++ {
		id := s.ID[i]
		if id < 0 || id >= int64(n) {
			return fmt.Errorf("integrate: particle %d has ID %d outside dense range [0, %d)", i, id, n)
		}
		if seen[id] {
			return fmt.Errorf("integrate: duplicate particle ID %d", id)
		}
		seen[id] = true
	}
	b.idsOK = true
	return nil
}

// Prime computes initial forces and the initial rung assignment at
// tick 0. Step calls it automatically if the caller has not.
func (b *BlockLeapfrog) Prime(s *nbody.System) error {
	if err := b.Crit.Validate(); err != nil {
		return err
	}
	if b.Force == nil {
		return fmt.Errorf("integrate: block leapfrog needs a force function")
	}
	b.ensure(len(s.Pos))
	if err := b.validateIDs(s); err != nil {
		return err
	}
	if err := b.Force(s); err != nil {
		return err
	}
	b.tick = 0
	for id := range b.active {
		b.active[id] = true // tick 0 is a boundary for every rung
	}
	if err := b.assignRungs(s); err != nil {
		return err
	}
	b.primed = true
	return nil
}

// Step advances one full block (2^MaxRung ticks = Crit.Span() time).
func (b *BlockLeapfrog) Step(s *nbody.System) error {
	if !b.primed {
		if err := b.Prime(s); err != nil {
			return err
		}
	}
	if len(b.rungs) != len(s.Pos) {
		if b.Crit.MaxRung > 0 {
			return fmt.Errorf("integrate: system size %d does not match block state for %d particles", len(s.Pos), len(b.rungs))
		}
		// A single-rung run marked primed from a checkpoint has no rung
		// state to restore: every particle is on rung 0.
		b.ensure(len(s.Pos))
		b.idsOK = false
	}
	if !b.idsOK {
		if err := b.validateIDs(s); err != nil {
			return err
		}
	}
	span := int64(1) << uint(b.Crit.MaxRung)
	for {
		nOpen := b.markActive(s)
		if nOpen == 0 {
			return fmt.Errorf("integrate: block clock stalled: no particle opens at tick %d", b.tick)
		}
		b.halfKick(s)
		d := b.nextStop()
		if d <= 0 || b.tick+d > span {
			return fmt.Errorf("integrate: block clock broke alignment: advance %d from tick %d exceeds span %d", d, b.tick, span)
		}
		dtd := b.Crit.DTMin * float64(d)
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].MulAdd(dtd, s.Vel[i])
		}
		b.tick += d
		nClose := b.markActive(s)
		if nClose == 0 {
			return fmt.Errorf("integrate: block clock stalled: no particle closes at tick %d", b.tick)
		}
		if nClose == len(s.Pos) || b.ForceActive == nil {
			if err := b.Force(s); err != nil {
				return err
			}
		} else {
			if err := b.ForceActive(s, b.active, nClose); err != nil {
				return err
			}
		}
		b.halfKick(s)
		if err := b.assignRungs(s); err != nil {
			return err
		}
		if b.tick >= span {
			b.tick = 0
			return nil
		}
	}
}

// markActive marks every particle at a step boundary of the current
// tick and returns the count. The same predicate yields the opening
// set before a drift and the closing set after it.
func (b *BlockLeapfrog) markActive(s *nbody.System) int {
	n := 0
	for i := range s.Pos {
		id := s.ID[i]
		on := b.tick&((int64(1)<<uint(b.rungs[id]))-1) == 0
		b.active[id] = on
		if on {
			n++
		}
	}
	return n
}

// halfKick applies dt/2 velocity kicks to the marked set, each particle
// at its own rung's step.
func (b *BlockLeapfrog) halfKick(s *nbody.System) {
	for i := range s.Vel {
		id := s.ID[i]
		if !b.active[id] {
			continue
		}
		half := b.Crit.DT(int(b.rungs[id])) / 2
		s.Vel[i] = s.Vel[i].MulAdd(half, s.Acc[i])
	}
}

// nextStop returns the tick distance to the nearest step boundary of
// any particle. The minimum-rung particles control the substep; the
// result always lands on or before the block boundary because every
// rung's step divides the span.
func (b *BlockLeapfrog) nextStop() int64 {
	span := int64(1) << uint(b.Crit.MaxRung)
	d := span - b.tick
	for _, k := range b.rungs {
		step := int64(1) << uint(k)
		rem := step - b.tick&(step-1)
		if rem < d {
			d = rem
		}
	}
	return d
}

// assignRungs reassigns the marked (closing) set's rungs from their
// fresh accelerations. Increases are capped at trailing-zeros(tick) so
// the particle's next step starts on a boundary it is actually at;
// decreases are always aligned because a smaller power of two divides
// the current one.
//
// A non-finite |a| — a faulted board surviving guard fallback, an IC
// bug — is a loud error on every dt policy: kicking with it would
// poison every position after it. The pass is serial and reports the
// first such particle in index order.
func (b *BlockLeapfrog) assignRungs(s *nbody.System) error {
	rungCap := b.Crit.MaxRung
	if b.tick != 0 {
		if tz := bits.TrailingZeros64(uint64(b.tick)); tz < rungCap {
			rungCap = tz
		}
	}
	for i := range s.Pos {
		id := s.ID[i]
		if !b.active[id] {
			continue
		}
		a := s.Acc[i].Norm()
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("integrate: non-finite acceleration |a|=%v for particle id %d at tick %d: refusing to assign a rung from corrupt forces", a, id, b.tick)
		}
		b.rungs[id] = uint8(min(b.Crit.rungFor(a), rungCap))
	}
	return nil
}
