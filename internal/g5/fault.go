package g5

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// FaultModel configures seeded, deterministic fault injection into an
// emulated System. It reproduces the failure modes GRAPE operators had
// to handle in long unattended runs (Kawai et al. 1999; Fukushige et
// al. 2005): corrupted words in the particle-data memory, stuck force
// pipelines, host-interface transfer errors, and boards that simply
// stop responding. All randomness comes from Seed, so a faulty run is
// exactly reproducible.
//
// Rates are per-Compute-call probabilities in [0, 1]. The zero value
// injects nothing.
type FaultModel struct {
	// Seed seeds the injector's private random stream.
	Seed uint64

	// JMemBitFlipRate is the probability that one stored j-particle
	// word (a mass or a position coordinate) is read back corrupted —
	// a high mantissa bit flipped — during the call. The corruption is
	// silent: forces come back plausible but wrong by roughly the
	// corrupted particle's share of the total.
	JMemBitFlipRate float64
	// StuckPipeRate is the probability that one virtual pipeline of
	// one active board sticks at zero for the call, silently dropping
	// that board's force contribution for every i-particle served by
	// the stuck slot (i with i % VirtualPipesPerBoard == slot).
	StuckPipeRate float64
	// BusErrorRate is the probability of a detected host-interface
	// transfer error: Compute fails with a transient HardwareError
	// before any force is produced.
	BusErrorRate float64
	// TransientRate is the probability of a transient compute failure
	// (driver timeout): Compute fails with a transient HardwareError.
	TransientRate float64

	// FailBoard, when in [1, Boards] (1-based; 0 disables), makes
	// virtual pipeline FailSlot of that board stick at zero on every
	// Compute call after the first FailAfterRuns calls — the
	// paper-authentic hard failure: a board dies mid-run and stays
	// dead until the host excludes it.
	FailBoard int
	// FailAfterRuns is the number of Compute calls the failing board
	// survives before sticking (0 = stuck from the first call).
	FailAfterRuns int64
	// FailSlot is the stuck virtual-pipeline slot (taken modulo
	// VirtualPipesPerBoard).
	FailSlot int
}

// enabled reports whether the model can inject anything at all.
func (m FaultModel) enabled() bool {
	return m.JMemBitFlipRate > 0 || m.StuckPipeRate > 0 ||
		m.BusErrorRate > 0 || m.TransientRate > 0 || m.FailBoard >= 1
}

// validate reports configuration errors against the board count.
func (m FaultModel) validate(boards int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"JMemBitFlipRate", m.JMemBitFlipRate},
		{"StuckPipeRate", m.StuckPipeRate},
		{"BusErrorRate", m.BusErrorRate},
		{"TransientRate", m.TransientRate},
	} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("g5: fault %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	if m.FailBoard < 0 || m.FailBoard > boards {
		return fmt.Errorf("g5: fault FailBoard = %d outside [0, %d]", m.FailBoard, boards)
	}
	if m.FailAfterRuns < 0 {
		return fmt.Errorf("g5: fault FailAfterRuns = %d negative", m.FailAfterRuns)
	}
	if m.FailSlot < 0 {
		return fmt.Errorf("g5: fault FailSlot = %d negative", m.FailSlot)
	}
	return nil
}

// FaultStats counts injected-fault activity, one counter per fault
// class.
type FaultStats struct {
	// JMemBitFlips is the number of corrupted j-memory words streamed.
	JMemBitFlips int64
	// StuckPipeCalls is the number of Compute calls that ran with at
	// least one stuck virtual pipeline (random or hard-failed).
	StuckPipeCalls int64
	// BusErrors is the number of injected transfer errors.
	BusErrors int64
	// Transients is the number of injected transient compute failures.
	Transients int64
}

// stuckPipe identifies one stuck virtual pipeline.
type stuckPipe struct{ board, slot int }

// faultPlan is the injector's decision for one Compute call.
type faultPlan struct {
	// err, when non-nil, fails the call before any force is produced.
	err *HardwareError
	// flipJ is the j index whose word is corrupted (-1: none).
	flipJ    int
	flipMass bool // corrupt the mass word instead of a position word
	flipAxis int  // position coordinate to corrupt (0..2)
	flipBit  uint // mantissa bit to flip
	// stuck lists the virtual pipelines stuck at zero for this call.
	stuck []stuckPipe
}

// faultInjector holds the mutable state of a FaultModel attached to a
// System: the private random stream, the call count driving the hard
// failure, and the activity counters.
type faultInjector struct {
	model FaultModel
	r     *rng.Source
	calls int64
	stats FaultStats

	// stuckBuf backs the current plan's stuck list (random + hard failure).
	stuckBuf [2]stuckPipe
}

func newFaultInjector(m FaultModel) *faultInjector {
	return &faultInjector{model: m, r: rng.New(m.Seed)}
}

// plan draws this call's faults. active lists the boards still in
// service; stuck pipes only ever target those (an excluded board's
// faults are invisible, which is the whole point of excluding it).
func (f *faultInjector) plan(nj int, active []int) faultPlan {
	f.calls++
	p := faultPlan{flipJ: -1, stuck: f.stuckBuf[:0]}
	m := f.model
	if m.BusErrorRate > 0 && f.r.Float64() < m.BusErrorRate {
		f.stats.BusErrors++
		p.err = &HardwareError{Op: "bus transfer", Transient: true,
			Err: fmt.Errorf("injected DMA checksum mismatch (call %d)", f.calls)}
		return p
	}
	if m.TransientRate > 0 && f.r.Float64() < m.TransientRate {
		f.stats.Transients++
		p.err = &HardwareError{Op: "compute timeout", Transient: true,
			Err: fmt.Errorf("injected driver timeout (call %d)", f.calls)}
		return p
	}
	if nj > 0 && m.JMemBitFlipRate > 0 && f.r.Float64() < m.JMemBitFlipRate {
		f.stats.JMemBitFlips++
		p.flipJ = f.r.Intn(nj)
		p.flipMass = f.r.Float64() < 0.5
		p.flipAxis = f.r.Intn(3)
		// Top mantissa bits: a large (up to ~50 %) but finite error.
		p.flipBit = uint(48 + f.r.Intn(4))
	}
	if len(active) > 0 && m.StuckPipeRate > 0 && f.r.Float64() < m.StuckPipeRate {
		b := active[f.r.Intn(len(active))]
		p.stuck = append(p.stuck, stuckPipe{board: b, slot: f.r.Intn(VirtualPipesPerBoard)})
	}
	if m.FailBoard >= 1 && f.calls > m.FailAfterRuns {
		b := m.FailBoard - 1
		for _, a := range active {
			if a == b {
				p.stuck = append(p.stuck, stuckPipe{board: b, slot: m.FailSlot % VirtualPipesPerBoard})
				break
			}
		}
	}
	if len(p.stuck) > 0 {
		f.stats.StuckPipeCalls++
	}
	return p
}

// flipMantissaBit flips one mantissa bit of v. Mantissa-only flips
// cannot create Inf/NaN from a finite value, but guard anyway so a
// corrupted word never poisons the whole batch with non-finite values.
func flipMantissaBit(v float64, bit uint) float64 {
	f := math.Float64frombits(math.Float64bits(v) ^ (1 << (bit & 51)))
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return v
	}
	return f
}
