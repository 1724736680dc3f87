package g5

import (
	"math"
	"testing"
)

// FuzzRoundMantissa: the number-format invariants must hold for any
// input — idempotence, sign preservation, and the half-ulp relative
// bound for normal floats — and the result must be the reference
// body's, bit for bit, at the tested budget and at the raw one (which
// reaches 0 and the >= 52 identity).
func FuzzRoundMantissa(f *testing.F) {
	f.Add(1.0, uint8(7))
	f.Add(-3.14159, uint8(2))
	f.Add(1e-300, uint8(10))
	f.Add(1e300, uint8(1))
	f.Add(0.0, uint8(7))
	f.Fuzz(func(t *testing.T, x float64, bitsRaw uint8) {
		bits := uint(1 + bitsRaw%52)
		checkRoundMatchesRef(t, x, bits)
		checkRoundMatchesRef(t, x, uint(bitsRaw))
		y := RoundMantissa(x, bits)
		if math.IsNaN(x) {
			if !math.IsNaN(y) {
				t.Fatalf("NaN -> %v", y)
			}
			return
		}
		if RoundMantissa(y, bits) != y {
			t.Fatalf("not idempotent: %v -> %v -> %v", x, y, RoundMantissa(y, bits))
		}
		if x != 0 && y != 0 && math.Signbit(x) != math.Signbit(y) {
			t.Fatalf("sign flipped: %v -> %v", x, y)
		}
		if x != 0 && !math.IsInf(x, 0) && math.Abs(x) < 1e300 && math.Abs(x) > 1e-300 && !math.IsInf(y, 0) {
			rel := math.Abs(y-x) / math.Abs(x)
			if rel > math.Exp2(-float64(bits))/2*(1+1e-12) {
				t.Fatalf("relative error %v exceeds half-ulp at %d bits for %v", rel, bits, x)
			}
		}
	})
}

// FuzzFixedGrid: quantisation must stay inside the range and within
// half a step for in-range inputs, and a NaN is never in range.
func FuzzFixedGrid(f *testing.F) {
	f.Add(0.5, uint8(8))
	f.Add(-123.0, uint8(16))
	f.Add(math.Pi, uint8(32))
	f.Fuzz(func(t *testing.T, x float64, bitsRaw uint8) {
		bits := uint(1 + bitsRaw%32)
		g := NewFixedGrid(-100, 100, bits)
		v, ok := g.Quantize(x)
		if math.IsNaN(x) {
			if ok {
				t.Fatalf("NaN reported inside the range (quantised to %v)", v)
			}
			return
		}
		if v < -100 || v > 100 {
			t.Fatalf("quantised value %v escaped the range", v)
		}
		if ok && !math.IsInf(x, 0) {
			if math.Abs(v-x) > g.Step()/2*(1+1e-9) {
				t.Fatalf("in-range error %v exceeds half step %v", math.Abs(v-x), g.Step()/2)
			}
		}
	})
}
