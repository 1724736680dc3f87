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
// to a configurable number of mantissa bits (an equivalent-error model
// of the log format, tuned to the 0.3 % pairwise figure), and every
// Compute call charges pipeline cycles and host-interface bytes to a
// simulated wall clock.
package g5

import "fmt"

// Config describes a GRAPE-5 installation. The zero value is not
// usable; call DefaultConfig for the paper's system.
type Config struct {
	// Boards is the number of processor boards (paper: 2).
	Boards int
	// ChipsPerBoard is the number of G5 chips per board (8).
	ChipsPerBoard int
	// PipesPerChip is the number of physical force pipelines per chip (2).
	PipesPerChip int
	// VMP is the virtual-multiple-pipeline factor: each physical
	// pipeline time-shares this many i-particles, matching the 90/15
	// chip/board clock ratio (6).
	VMP int
	// ChipClockHz is the pipeline clock (90 MHz).
	ChipClockHz float64
	// BoardClockHz is the memory/board clock streaming j-particles (15 MHz).
	BoardClockHz float64
	// JMemPerBoard is the particle-data-memory capacity per board, in
	// particles. Larger j-sets are processed in multiple passes.
	JMemPerBoard int

	// PosBits is the fixed-point resolution of particle coordinates
	// over the SetScale range (32).
	PosBits uint
	// MassBits is the mantissa resolution of particle masses (12).
	MassBits uint
	// R2Bits is the mantissa resolution of the squared-distance path (16).
	R2Bits uint
	// PipeBits is the mantissa resolution of the force/potential
	// arithmetic units. Two successive roundings at 7 bits give a
	// pairwise RMS force error of ≈0.3 %, the paper's figure.
	PipeBits uint

	// BusBandwidth is the sustained host-interface bandwidth in
	// bytes/second (PCI era: ~70 MB/s).
	BusBandwidth float64
	// BusLatencyS is the fixed per-call overhead in seconds (driver +
	// DMA setup).
	BusLatencyS float64
	// BytesPerJ, BytesPerI, BytesPerForce are the transfer sizes per
	// j-particle upload, i-particle upload and per-board force
	// readback.
	BytesPerJ, BytesPerI, BytesPerForce int

	// OpsPerInteraction is the flop-counting convention (38).
	OpsPerInteraction int

	// Fault, when non-nil, injects seeded deterministic hardware
	// faults (j-memory bit flips, stuck pipelines, bus errors,
	// transient failures) into every Compute call. Nil means a perfect
	// device.
	Fault *FaultModel
}

// DefaultConfig returns the configuration of the paper's 2-board
// GRAPE-5 system.
func DefaultConfig() Config {
	return Config{
		Boards:            2,
		ChipsPerBoard:     8,
		PipesPerChip:      2,
		VMP:               6,
		ChipClockHz:       90e6,
		BoardClockHz:      15e6,
		JMemPerBoard:      131072,
		PosBits:           32,
		MassBits:          12,
		R2Bits:            16,
		PipeBits:          7,
		BusBandwidth:      70e6,
		BusLatencyS:       50e-6,
		BytesPerJ:         16,
		BytesPerI:         12,
		BytesPerForce:     16,
		OpsPerInteraction: 38,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Boards < 1:
		return fmt.Errorf("g5: Boards must be >= 1")
	case c.ChipsPerBoard < 1 || c.PipesPerChip < 1 || c.VMP < 1:
		return fmt.Errorf("g5: chip/pipe/VMP counts must be >= 1")
	case c.ChipClockHz <= 0 || c.BoardClockHz <= 0:
		return fmt.Errorf("g5: clocks must be positive")
	case c.JMemPerBoard < 1:
		return fmt.Errorf("g5: JMemPerBoard must be >= 1")
	case c.PosBits < 1 || c.PosBits > 52:
		return fmt.Errorf("g5: PosBits must be in [1, 52]")
	case c.BusBandwidth <= 0:
		return fmt.Errorf("g5: BusBandwidth must be positive")
	case c.OpsPerInteraction < 1:
		return fmt.Errorf("g5: OpsPerInteraction must be >= 1")
	}
	if c.Fault != nil {
		if err := c.Fault.validate(c); err != nil {
			return err
		}
	}
	return nil
}

// PhysicalPipes returns the total number of physical pipelines.
func (c Config) PhysicalPipes() int { return c.Boards * c.ChipsPerBoard * c.PipesPerChip }

// VirtualPipesPerBoard returns how many i-particles one board serves
// per memory pass.
func (c Config) VirtualPipesPerBoard() int { return c.ChipsPerBoard * c.PipesPerChip * c.VMP }

// PeakInteractionsPerSecond returns the hardware's peak pairwise
// interaction rate: physical pipes × chip clock. For the paper's
// system this is 2.88e9.
func (c Config) PeakInteractionsPerSecond() float64 {
	return float64(c.PhysicalPipes()) * c.ChipClockHz
}

// PeakFlops returns the theoretical peak in flops using the
// OpsPerInteraction convention: 109.44 Gflops for the paper's system.
func (c Config) PeakFlops() float64 {
	return c.PeakInteractionsPerSecond() * float64(c.OpsPerInteraction)
}
