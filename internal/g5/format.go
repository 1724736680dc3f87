package g5

import "math"

// RoundMantissa rounds v to the nearest float with the given number of
// explicit mantissa bits (round-half-away-from-zero in magnitude).
// It models the relative-error behaviour of the G5 chip's logarithmic
// number format: quantising log2(v) with step 2^-b and rounding a
// mantissa to b bits both produce a uniform relative error of half a
// unit in the b-th fractional place.
//
// bits >= 52 returns v unchanged. Zero and infinities pass through.
// Values within half an ulp of ±MaxFloat64 round to infinity and
// subnormals lose the relative-error guarantee; both are far outside the
// dynamic range of any simulation quantity (the hardware's log format
// spans a comparable range). A NaN is outside the model, as it is
// outside the hardware's formats (System refuses one): its bits may come
// back changed.
func RoundMantissa(v float64, bits uint) float64 { return newRounder(bits).round(v) }

// rounder is RoundMantissa with a bit budget's two constants derived
// once, for loops that round many values: half an ulp at the kept
// precision and the mask of the bits that survive.
type rounder struct{ half, keep uint64 }

func newRounder(bits uint) rounder {
	if bits >= 52 {
		return rounder{0, ^uint64(0)}
	}
	shift := 52 - bits
	return rounder{1 << (shift - 1), ^(uint64(1)<<shift - 1)}
}

// round adds half an ulp to the magnitude and truncates, all on the bit
// pattern. The add may carry into the exponent, which is correct
// rounding across powers of two; Inf plus half stays below bit 63, so
// adding to the word is adding to the magnitude, and ±0 and ±Inf come
// out unchanged. At a budget of at least one bit so does the default
// quiet NaN of either sign (half <= 2^50 cannot reach its one mantissa
// bit), the only NaN the pair loop can make of finite input: an
// overflowed product at zero weight (DESIGN.md §13).
func (r rounder) round(v float64) float64 {
	return math.Float64frombits((math.Float64bits(v) + r.half) & r.keep)
}

// FixedGrid quantises coordinates to a uniform grid of 2^bits steps
// over [Min, Max), the emulator's model of the pipeline's fixed-point
// position format.
type FixedGrid struct {
	Min, Max float64
	step     float64
	maxIdx   float64
}

// NewFixedGrid constructs the grid. Max must exceed Min.
func NewFixedGrid(min, max float64, bits uint) FixedGrid {
	n := math.Exp2(float64(bits))
	return FixedGrid{Min: min, Max: max, step: (max - min) / n, maxIdx: n - 1}
}

// Quantize returns the grid value nearest to x, clamped to the range,
// and whether x was inside the representable range. A NaN is not: it
// comes back as NaN with ok false.
func (g FixedGrid) Quantize(x float64) (float64, bool) {
	idx := math.Round((x - g.Min) / g.step)
	ok := idx >= 0 && idx <= g.maxIdx // false for NaN
	if idx < 0 {
		idx = 0
	} else if idx > g.maxIdx {
		idx = g.maxIdx
	}
	return g.Min + idx*g.step, ok
}

// Step returns the grid spacing.
func (g FixedGrid) Step() float64 { return g.step }
