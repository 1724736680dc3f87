// Package g5 emulates the GRAPE-5 special-purpose computer: a
// functional model of its reduced-precision force pipelines plus a
// timing model of its boards, memory streaming and host interface.
//
// Hardware summary (paper §2, Fig. 1; Kawai et al. 2000, PASJ 52, 659):
// the system used for the Gordon Bell run has 2 processor boards, each
// carrying 8 G5 chips (2 force pipelines per chip, 90 MHz) and a
// particle-data memory streamed at the 15 MHz board clock; each
// physical pipeline serves 6 virtual pipelines so a board processes 96
// i-particles per memory pass. Pairwise forces carry ≈0.3 % relative
// error from the chip's logarithmic internal format. Peak speed is
// 32 pipelines × 90 MHz × 38 ops = 109.44 Gflops.
//
// The emulator reproduces those properties: positions are quantised to
// fixed point over the SetScale range, pipeline arithmetic is rounded
// to the installation's mantissa budgets (an equivalent-error model of
// the log format, tuned to the 0.3 % pairwise figure), and every
// Compute call charges pipeline cycles and host-interface bytes to a
// simulated wall clock.
package g5

// The paper's installation: the one machine the emulator models.
const (
	// Boards is the number of processor boards.
	Boards = 2
	// ChipsPerBoard is the number of G5 chips per board.
	ChipsPerBoard = 8
	// PipesPerChip is the number of physical force pipelines per chip.
	PipesPerChip = 2
	// VMP is the virtual-multiple-pipeline factor: each physical
	// pipeline time-shares this many i-particles, matching the 90/15
	// chip/board clock ratio.
	VMP = 6
	// ChipClockHz is the pipeline clock.
	ChipClockHz = 90e6
	// BoardClockHz is the memory/board clock streaming j-particles.
	BoardClockHz = 15e6
	// JMemPerBoard is the particle-data-memory capacity per board, in
	// particles. Larger j-sets are processed in multiple passes.
	JMemPerBoard = 131072

	// PosBits is the fixed-point resolution of particle coordinates
	// over the SetScale range.
	PosBits = 32
	// MassBits is the mantissa resolution of particle masses.
	MassBits = 12
	// R2Bits is the mantissa resolution of the squared-distance path.
	R2Bits = 16
	// PipeBits is the mantissa resolution of the force/potential
	// arithmetic units. Two successive roundings at 7 bits give a
	// pairwise RMS force error of ≈0.3 %, the paper's figure.
	PipeBits = 7

	// BusBandwidth is the sustained host-interface bandwidth in
	// bytes/second (PCI era).
	BusBandwidth = 70e6
	// BusLatencyS is the fixed per-call overhead in seconds (driver +
	// DMA setup).
	BusLatencyS = 50e-6
	// BytesPerJ, BytesPerI and BytesPerForce are the transfer sizes per
	// j-particle upload, i-particle upload and per-board force readback.
	BytesPerJ, BytesPerI, BytesPerForce = 16, 12, 16

	// OpsPerInteraction is the flop-counting convention.
	OpsPerInteraction = 38

	// PhysicalPipes is the total number of physical pipelines (32).
	PhysicalPipes = Boards * ChipsPerBoard * PipesPerChip
	// VirtualPipesPerBoard is how many i-particles one board serves per
	// memory pass (96).
	VirtualPipesPerBoard = ChipsPerBoard * PipesPerChip * VMP
	// PeakInteractionsPerSecond is the peak pairwise interaction rate,
	// physical pipes × chip clock (2.88e9).
	PeakInteractionsPerSecond = PhysicalPipes * ChipClockHz
	// PeakFlops is the theoretical peak under the OpsPerInteraction
	// convention (109.44 Gflops).
	PeakFlops = PeakInteractionsPerSecond * OpsPerInteraction
)

// Config configures one System on the paper's installation. Its zero
// value, which DefaultConfig returns, is a perfect device.
type Config struct {
	// Fault, when non-nil, injects seeded deterministic hardware
	// faults (j-memory bit flips, stuck pipelines, bus errors,
	// transient failures) into every Compute call. Nil means a perfect
	// device.
	Fault *FaultModel
}

// DefaultConfig returns the configuration of the paper's fault-free
// 2-board GRAPE-5 system.
func DefaultConfig() Config { return Config{} }

// Validate reports fault-model errors.
func (c Config) Validate() error {
	if c.Fault == nil {
		return nil
	}
	return c.Fault.validate(Boards)
}

// installation is what a System emulates of the hardware and a test may
// vary to prove something: the board count (exclusion down to none), the
// particle memory (multi-pass j streaming) and the four format budgets
// (52 bits isolates the format error). Every System but those tests' is
// built on paper.
type installation struct {
	boards, jmem                        int
	posBits, massBits, r2Bits, pipeBits uint
}

var paper = installation{Boards, JMemPerBoard, PosBits, MassBits, R2Bits, PipeBits}
