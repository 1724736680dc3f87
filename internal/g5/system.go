package g5

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/vec"
)

// Counters accumulate the hardware activity of a System. All times are
// simulated hardware seconds, not host wall-clock.
type Counters struct {
	// Interactions is the number of pairwise interactions streamed
	// through the pipelines (including padding-free accounting: only
	// real i×j pairs are counted).
	Interactions int64
	// PipeSeconds is the simulated time the pipelines were busy.
	PipeSeconds float64
	// BusSeconds is the simulated host-interface transfer time.
	BusSeconds float64
	// BytesTransferred is the total traffic over the host interface.
	BytesTransferred int64
	// Runs is the number of Compute calls (hardware activations).
	Runs int64
	// JPasses counts j-memory loads (greater than Runs when a j-set
	// exceeds the particle memory and must be processed in passes).
	JPasses int64
	// RangeClamps counts positions that fell outside the SetScale range
	// and were clamped.
	RangeClamps int64
}

// HWSeconds returns the total simulated hardware time.
func (c Counters) HWSeconds() float64 { return c.PipeSeconds + c.BusSeconds }

// System is an emulated GRAPE-5 installation. It is NOT safe for
// concurrent use — it models one physical device on one bus; wrap it in
// a GuardedEngine for concurrent callers. Precisely: begin and finish —
// and Compute, which is both around one evaluation — are single-caller;
// evaluate reads no System state, so the engine runs it unlocked.
type System struct {
	hw installation

	// scale state (g5_set_range in the real library)
	haveScale bool
	grid      FixedGrid
	eps       float64
	eps2      float64

	// excluded marks boards the host has taken out of service;
	// nActive is the count still serving (board exclusion is the
	// routine repair operation of the GRAPE cluster papers).
	excluded []bool
	nActive  int

	fault *faultInjector // nil without a fault model

	obs *obs.Observer // nil without telemetry
	cnt Counters

	// scratch is Compute's own evaluation scratch and activeScratch the
	// in-service board list begin hands the fault injector: a
	// steady-state Compute allocates nothing.
	scratch       evalScratch
	activeScratch []int
}

// evalScratch is the working memory of one evaluation — quantized i/j
// positions, rounded masses, per-slot stuck factors — one per batch in
// flight.
type evalScratch struct {
	iq, jq    []vec.V3
	mq, stuck []float64
}

// grown returns s at length n, contents unspecified, reallocated by
// append's amortised rule when n outgrows it. As structure forms a run's
// longest list lengthens nearly every step, and a buffer made to fit
// exactly would be re-made as often.
func grown[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// activation is one hardware call between begin and finish: its
// arguments and a snapshot of what the arithmetic and the charge depend
// on, so neither reads the System again. The zero value is an empty batch.
type activation struct {
	ipos, jpos, acc []vec.V3
	jmass, pot      []float64
	sc              *evalScratch
	boards          int // in service when the call was planned: finish charges these

	grid                       FixedGrid
	eps2                       float64
	pipeBits, r2Bits, massBits uint
	plan                       faultPlan // the flipped word; stuck pipes are in stuck
	stuck                      []float64 // per-slot factors in the caller's scratch, nil when healthy

	clamps int64 // positions evaluate clamped to the scale range
}

// NewSystem builds an emulated system on the paper's installation. The
// configuration is validated.
func NewSystem(cfg Config) (*System, error) { return newSystem(paper, cfg) }

// newSystem is NewSystem on installation hw.
func newSystem(hw installation, cfg Config) (*System, error) {
	s := &System{hw: hw, excluded: make([]bool, hw.boards), nActive: hw.boards}
	if f := cfg.Fault; f != nil {
		if err := f.validate(hw.boards); err != nil {
			return nil, err
		}
		if f.enabled() {
			s.fault = newFaultInjector(*f)
			s.activeScratch = make([]int, 0, hw.boards)
		}
	}
	return s, nil
}

// SetObserver attaches a telemetry observer: every charge to the
// timing model is also recorded as simulated-hardware phase spans
// (j/i-particle transfer, pipeline streaming, force readback). The
// work itself (interactions, bytes) is counted once, in Counters. A nil
// observer detaches.
func (s *System) SetObserver(o *obs.Observer) { s.obs = o }

// Counters returns a snapshot of the activity counters.
func (s *System) Counters() Counters { return s.cnt }

// SetScale defines the coordinate range mapped onto the pipeline's
// fixed-point format, like g5_set_range. All positions of subsequent
// Compute calls must lie inside [min, max) in every coordinate; the
// rest are clamped and counted in Counters.RangeClamps, as on the
// hardware. A non-finite coordinate is refused (Compute).
func (s *System) SetScale(min, max float64) error {
	if !(max > min) || math.IsNaN(min) || math.IsInf(max-min, 0) {
		return fmt.Errorf("g5: invalid scale range [%v, %v)", min, max)
	}
	s.grid = NewFixedGrid(min, max, s.hw.posBits)
	s.haveScale = true
	return nil
}

// SetEps sets the Plummer softening length used by the pipelines
// (GRAPE-5 applies one global softening per run). Like SetScale, it
// rejects values the hardware register cannot mean: NaN, negative and
// infinite softening all fail, leaving the previous value in place.
func (s *System) SetEps(eps float64) error {
	if math.IsNaN(eps) || eps < 0 || math.IsInf(eps, 0) {
		return fmt.Errorf("g5: invalid softening %v", eps)
	}
	s.eps = eps
	s.eps2 = eps * eps
	return nil
}

// Eps returns the current softening length.
func (s *System) Eps() float64 { return s.eps }

// ScaleRange returns the active fixed-point coordinate window set by
// SetScale, with ok=false before the first SetScale.
func (s *System) ScaleRange() (min, max float64, ok bool) {
	if !s.haveScale {
		return 0, 0, false
	}
	return s.grid.Min, s.grid.Max, true
}

// FaultStats returns the injected-fault activity counters (all zero
// without a fault model).
func (s *System) FaultStats() FaultStats {
	if s.fault == nil {
		return FaultStats{}
	}
	return s.fault.stats
}

// SetBoardExcluded marks board b (0-based) out of or back into
// service. Remaining work is re-planned on the surviving boards: the
// timing model streams j through fewer pipelines and the particle
// memory shrinks accordingly, so throughput degrades the way
// TestMorePipesFasterModel says it must.
func (s *System) SetBoardExcluded(b int, exclude bool) error {
	if b < 0 || b >= s.hw.boards {
		return fmt.Errorf("g5: board %d outside [0, %d)", b, s.hw.boards)
	}
	if s.excluded[b] != exclude {
		s.excluded[b] = exclude
		if exclude {
			s.nActive--
		} else {
			s.nActive++
		}
	}
	return nil
}

// BoardExcluded reports whether board b is out of service.
func (s *System) BoardExcluded(b int) bool {
	return b >= 0 && b < s.hw.boards && s.excluded[b]
}

// ActiveBoards returns the number of boards still in service.
func (s *System) ActiveBoards() int { return s.nActive }

// activeBoardList returns the 0-based indices of in-service boards.
func (s *System) activeBoardList() []int {
	out := s.activeScratch[:0] // cap Boards: the appends stay in place
	for b, ex := range s.excluded {
		if !ex {
			out = append(out, b)
		}
	}
	return out
}

// Compute runs the hardware on one batch: the accelerations and
// potentials (G=1 units) exerted by sources (jpos, jmass) on field
// points ipos are ADDED into acc and pot. It models the full offload:
// j upload (chunked by particle-memory capacity), i upload, pipeline
// passes, force readback — charging simulated time to the counters —
// and evaluates the forces with the pipeline's reduced precision. A call
// with a non-finite coordinate or mass fails with a permanent
// HardwareError and charges nothing: the hardware's fixed-point and
// logarithmic formats hold no NaN or infinity.
func (s *System) Compute(ipos, jpos []vec.V3, jmass []float64, acc []vec.V3, pot []float64) error {
	a, err := s.begin(ipos, jpos, jmass, acc, pot, &s.scratch)
	if err != nil {
		return err
	}
	a.evaluate()
	s.finish(&a)
	return nil
}

// begin opens one hardware call: it checks the device state and the
// arguments, draws the call's faults and snapshots what evaluate and
// finish need. The arguments are checked before the faults are drawn,
// so a refused call leaves the fault stream where it was. The stuck
// factors go into sc, the scratch the call will evaluate with (the
// injector's own list lasts until its next draw).
func (s *System) begin(ipos, jpos []vec.V3, jmass []float64, acc []vec.V3, pot []float64, sc *evalScratch) (activation, error) {
	if !s.haveScale {
		return activation{}, fmt.Errorf("g5: Compute before SetScale")
	}
	if len(jpos) != len(jmass) {
		return activation{}, fmt.Errorf("g5: jpos/jmass length mismatch: %d vs %d", len(jpos), len(jmass))
	}
	if len(acc) != len(ipos) || len(pot) != len(ipos) {
		return activation{}, fmt.Errorf("g5: output length mismatch")
	}
	if len(ipos) == 0 || len(jpos) == 0 {
		return activation{}, nil
	}
	if s.nActive == 0 {
		return activation{}, &HardwareError{Op: "compute",
			Err: fmt.Errorf("all %d boards excluded from service", s.hw.boards)}
	}
	if err := refuseNonFinite(ipos, jpos, jmass); err != nil {
		return activation{}, err
	}
	a := activation{
		ipos: ipos, jpos: jpos, jmass: jmass, acc: acc, pot: pot, sc: sc,
		boards: s.nActive, grid: s.grid, eps2: s.eps2,
		pipeBits: s.hw.pipeBits, r2Bits: s.hw.r2Bits, massBits: s.hw.massBits,
		plan: faultPlan{flipJ: -1},
	}
	if s.fault != nil {
		a.plan = s.fault.plan(len(jpos), s.activeBoardList())
		if a.plan.err != nil {
			return activation{}, a.plan.err
		}
	}
	// A stuck virtual pipeline zeroes the owning board's partial force
	// for every i-slot it serves; the host sums per-board partials, so
	// the affected i lose that board's 1/nActive share of j.
	if len(a.plan.stuck) > 0 {
		if sc.stuck == nil {
			sc.stuck = make([]float64, VirtualPipesPerBoard)
		}
		a.stuck = sc.stuck
		for i := range a.stuck {
			a.stuck[i] = 1
		}
		share := 1 / float64(s.nActive)
		for _, sp := range a.plan.stuck {
			a.stuck[sp.slot] *= 1 - share
		}
	}
	a.plan.stuck = nil
	return a, nil
}

// refuseNonFinite returns a permanent HardwareError naming the first
// NaN or infinite coordinate or mass of a call, or nil. It runs on every
// call, so it tests one comparison a value: |x| <= MaxFloat64 is false
// for NaN and ±Inf alone.
func refuseNonFinite(ipos, jpos []vec.V3, jmass []float64) error {
	bad := func(what string, k int, v any) error {
		return &HardwareError{Op: "input", Err: fmt.Errorf("%s %d is not finite: %v", what, k, v)}
	}
	finite := func(p vec.V3) bool {
		return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64 && math.Abs(p.Z) <= math.MaxFloat64
	}
	for i, p := range ipos {
		if !finite(p) {
			return bad("i-particle position", i, p)
		}
	}
	for j, p := range jpos {
		if !finite(p) {
			return bad("j-particle position", j, p)
		}
	}
	for j, m := range jmass {
		if !(math.Abs(m) <= math.MaxFloat64) {
			return bad("j-particle mass", j, m)
		}
	}
	return nil
}

// evaluate is the functional model of the call: quantise, round the
// masses, flip the corrupted word, stream the pipelines. It reads the
// activation only — no System.
func (a *activation) evaluate() {
	if a.boards == 0 {
		return
	}
	sc := a.sc
	iq := a.quantizeInto(&sc.iq, a.ipos)
	jq := a.quantizeInto(&sc.jq, a.jpos)
	sc.mq = grown(sc.mq, len(jq))
	mq := sc.mq
	for j, m := range a.jmass {
		mq[j] = RoundMantissa(m, a.massBits)
	}
	if plan := &a.plan; plan.flipJ >= 0 {
		// A corrupted word read back from the particle memory; the flip
		// never turns a number into a NaN (flipMantissaBit).
		if plan.flipMass {
			mq[plan.flipJ] = flipMantissaBit(mq[plan.flipJ], plan.flipBit)
		} else {
			p := &jq[plan.flipJ]
			switch plan.flipAxis {
			case 0:
				p.X = flipMantissaBit(p.X, plan.flipBit)
			case 1:
				p.Y = flipMantissaBit(p.Y, plan.flipBit)
			default:
				p.Z = flipMantissaBit(p.Z, plan.flipBit)
			}
		}
	}
	pipeline(iq, jq, mq, a.stuck, a.eps2, a.pipeBits, a.r2Bits, hostLanes, a.acc, a.pot)
}

// finish closes the call: it charges the timing model for the board set
// the call was planned on and books the range clamps.
func (s *System) finish(a *activation) {
	if a.boards == 0 {
		return
	}
	s.charge(len(a.ipos), len(a.jpos), a.boards)
	s.cnt.RangeClamps += a.clamps
}

// laneBody names a pair loop of pipeline.
type laneBody uint8

const (
	portableBody laneBody = iota // streamJ, one i-point a sweep
	avx2Body                     // streamJLanes4 on lanes 0–3, then 4–7
	avx512Body                   // streamJLanes8
)

// laneWidth is the number of i-points one block of lanes serves.
const laneWidth = 8

// laneBlock is one block's operands: up to laneWidth distinct i-points,
// the call's constants spread across the lanes, each point's sums over
// j, and the count of j streamJLanes8 could not certify. It lives on
// pipeline's stack, one per call.
type laneBlock struct {
	x, y, z            [laneWidth]float64
	eps2               [laneWidth]float64
	distHalf, distKeep [laneWidth]uint64
	pipeHalf, pipeKeep [laneWidth]uint64
	ax, ay, az, pp     [laneWidth]float64
	fallbacks          int
}

// pipeline is the functional model of the force pipelines: the
// reduced-precision sums of sources (jq, mq) on each point of iq, times
// the point's slot factor (stuckFactor[i % len], nil on a healthy
// device), ADDED into acc and pot. The sums depend on (iq[i], jq, mq)
// only, so only a run head — a point differing from its predecessor —
// streams j and the rest of its run reuses the sums: the guard's probe,
// copied into every slot of a pass, costs one sweep and each slot still
// gets its own factor. body is the pair loop to run (hostLanes, but for
// tests); it never changes the result. A lane body serves laneWidth
// heads a block, as a board's virtual pipelines share one j stream; the
// last block repeats its last head into the lanes left over and drops
// their sums. A block of at most four heads takes one streamJLanes4
// sweep on either lane body: four YMM lanes cost less than eight ZMM
// ones. It returns the iterations streamJLanes8 divided for.
func pipeline(iq, jq []vec.V3, mq, stuckFactor []float64, eps2 float64, pipeBits, r2Bits uint, body laneBody, acc []vec.V3, pot []float64) int {
	pipe, dist := newRounder(pipeBits), newRounder(r2Bits)
	mq = mq[:len(jq)]
	lanes := body != portableBody
	var b laneBlock
	width := 1
	if lanes {
		width = laneWidth
		for l := range b.eps2 {
			b.eps2[l] = eps2
			b.distHalf[l], b.distKeep[l] = dist.half, dist.keep
			b.pipeHalf[l], b.pipeKeep[l] = pipe.half, pipe.keep
		}
	}
	for start := 0; start < len(iq); {
		// The block: the next width run heads; head l's run is
		// iq[first[l]:first[l+1]].
		var first [laneWidth + 1]int
		heads, end := 0, start
		for ; end < len(iq); end++ {
			if end == start || iq[end] != iq[end-1] {
				if heads == width {
					break
				}
				b.x[heads], b.y[heads], b.z[heads] = iq[end].X, iq[end].Y, iq[end].Z
				first[heads] = end
				heads++
			}
		}
		first[heads] = end
		if lanes {
			for l := heads; l < laneWidth; l++ {
				b.x[l], b.y[l], b.z[l] = b.x[heads-1], b.y[heads-1], b.z[heads-1]
			}
			if body == avx512Body && heads > laneWidth/2 {
				streamJLanes8(&b, jq, mq)
			} else {
				streamJLanes4(&b, 0, jq, mq)
				if heads > laneWidth/2 {
					streamJLanes4(&b, laneWidth/2, jq, mq)
				}
			}
		} else {
			b.ax[0], b.ay[0], b.az[0], b.pp[0] = streamJ(iq[start], jq, mq, eps2, pipe, dist)
		}
		for l := 0; l < heads; l++ {
			for i := first[l]; i < first[l+1]; i++ {
				fx, fy, fz, fp := b.ax[l], b.ay[l], b.az[l], b.pp[l]
				if stuckFactor != nil {
					f := stuckFactor[i%len(stuckFactor)]
					fx, fy, fz, fp = fx*f, fy*f, fz*f, fp*f
				}
				acc[i] = acc[i].Add(vec.V3{X: fx, Y: fy, Z: fz})
				pot[i] += fp
			}
		}
		start = end
	}
	return b.fallbacks
}

// streamJ is one pipeline's pass over the j memory: six roundings per
// pair, in place. A coincident pair runs with zero mass at unit distance
// and adds +0, the hardware's answer (DESIGN.md §13 has the IEEE
// argument). len(mq) == len(jq).
func streamJ(pi vec.V3, jq []vec.V3, mq []float64, eps2 float64, pipe, dist rounder) (ax, ay, az, pp float64) {
	for j, pj := range jq {
		dx := pj.X - pi.X
		dy := pj.Y - pi.Y
		dz := pj.Z - pi.Z
		r2 := dx*dx + dy*dy + dz*dz
		m := mq[j]
		if r2 == 0 {
			m, r2 = 0, 1
		}
		r2 = dist.round(r2 + eps2)
		inv := 1 / math.Sqrt(r2)
		fpot := pipe.round(m * inv)
		ff := pipe.round(m * inv / r2)
		ax += pipe.round(ff * dx)
		ay += pipe.round(ff * dy)
		az += pipe.round(ff * dz)
		pp -= fpot
	}
	return ax, ay, az, pp
}

// quantizeInto maps positions through the fixed-point grid into the
// reused evaluation scratch *dst, counting the clamped ones.
func (a *activation) quantizeInto(dst *[]vec.V3, pos []vec.V3) []vec.V3 {
	*dst = grown(*dst, len(pos))
	out := *dst
	for i, p := range pos {
		qx, okx := a.grid.Quantize(p.X)
		qy, oky := a.grid.Quantize(p.Y)
		qz, okz := a.grid.Quantize(p.Z)
		if !okx || !oky || !okz {
			a.clamps++
		}
		out[i] = vec.V3{X: qx, Y: qy, Z: qz}
	}
	return out
}

// ChargeOnly accounts the simulated hardware cost of a Compute call
// with ni field points and nj sources WITHOUT evaluating any forces.
// The performance harness uses it to replay a traversal schedule
// through the timing model at full problem scale, where evaluating the
// arithmetic in emulation would be pointless work. It reads neither the
// scale window nor the softening, so a system that only ever sees
// ChargeOnly needs no SetScale or SetEps.
func (s *System) ChargeOnly(ni, nj int) {
	if ni <= 0 || nj <= 0 || s.nActive == 0 {
		return
	}
	s.charge(ni, nj, s.nActive)
}

// charge adds the simulated cost of one hardware call — j upload, i
// upload, pipeline passes, readback — on the given number of in-service
// boards to the counters; excluded boards carry no load.
func (s *System) charge(ni, nj, boards int) {
	c := &s.cnt
	c.Runs++
	c.Interactions += int64(ni) * int64(nj)

	vp := VirtualPipesPerBoard
	jmem := s.hw.jmem * boards

	// j is processed in passes of at most the total particle memory.
	passes := (nj + jmem - 1) / jmem
	c.JPasses += int64(passes)
	var pipeSec float64
	remaining := nj
	for p := 0; p < passes; p++ {
		chunk := remaining
		if chunk > jmem {
			chunk = jmem
		}
		remaining -= chunk
		// Each board streams its share of the chunk once per i-group
		// of vp particles, at the board clock.
		perBoard := (chunk + boards - 1) / boards
		iGroups := (ni + vp - 1) / vp
		pipeSec += float64(iGroups) * float64(perBoard) / BoardClockHz
	}
	c.PipeSeconds += pipeSec

	iBytes := int64(ni) * BytesPerI
	fBytes := int64(ni) * BytesPerForce * int64(boards)
	jBytes := int64(nj) * BytesPerJ
	bytes := iBytes + fBytes + jBytes
	c.BytesTransferred += bytes
	c.BusSeconds += float64(bytes)/BusBandwidth + BusLatencyS

	// Telemetry: the paper's t_grape is the pipeline span; t_comm
	// splits into the j upload, the i upload (which carries the fixed
	// DMA/driver latency) and the per-board force readback.
	s.obs.AddSeconds(obs.PhasePipeline, pipeSec)
	s.obs.AddSeconds(obs.PhaseJTransfer, float64(jBytes)/BusBandwidth)
	s.obs.AddSeconds(obs.PhaseITransfer, float64(iBytes)/BusBandwidth+BusLatencyS)
	s.obs.AddSeconds(obs.PhaseReadback, float64(fBytes)/BusBandwidth)
}
