package g5

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// FuzzRoundMantissa: the number-format invariants must hold for any
// finite input at the installation's budgets and the exact one —
// idempotence, sign preservation, and the half-ulp relative bound for
// normal floats — and the result must be the reference body's, bit for
// bit.
func FuzzRoundMantissa(f *testing.F) {
	f.Add(1.0, uint8(0))
	f.Add(-3.14159, uint8(1))
	f.Add(1e-300, uint8(2))
	f.Add(1e300, uint8(3))
	f.Add(0.0, uint8(0))
	f.Fuzz(func(t *testing.T, x float64, budget uint8) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		bits := [...]uint{PipeBits, R2Bits, MassBits, 52}[budget%4]
		checkRoundMatchesRef(t, x, bits)
		y := RoundMantissa(x, bits)
		if RoundMantissa(y, bits) != y {
			t.Fatalf("not idempotent: %v -> %v -> %v", x, y, RoundMantissa(y, bits))
		}
		if x != 0 && y != 0 && math.Signbit(x) != math.Signbit(y) {
			t.Fatalf("sign flipped: %v -> %v", x, y)
		}
		if x != 0 && math.Abs(x) < 1e300 && math.Abs(x) > 1e-300 {
			rel := math.Abs(y-x) / math.Abs(x)
			if rel > math.Exp2(-float64(bits))/2*(1+1e-12) {
				t.Fatalf("relative error %v exceeds half-ulp at %d bits for %v", rel, bits, x)
			}
		}
	})
}

// FuzzComputeRefusesNonFinite: a call is refused — a permanent
// *HardwareError, nothing charged — exactly when v, written into one of
// its coordinates or masses, is NaN or infinite; otherwise it runs.
func FuzzComputeRefusesNonFinite(f *testing.F) {
	f.Add(math.NaN(), uint8(0))
	f.Add(math.Inf(1), uint8(11))
	f.Add(math.Inf(-1), uint8(22))
	f.Add(1e300, uint8(5))
	f.Add(math.Copysign(0, -1), uint8(24))
	f.Fuzz(func(t *testing.T, v float64, where uint8) {
		q := randomRequest(rng.New(uint64(where)), 3, 4)
		ipos := q.IPos
		jpos, jm := aosSources(q)
		// 9 i coordinates, 12 j coordinates, 4 masses.
		switch k := int(where) % 25; {
		case k < 9:
			ipos[k/3] = ipos[k/3].SetComp(k%3, v)
		case k < 21:
			jpos[(k-9)/3] = jpos[(k-9)/3].SetComp(k%3, v)
		default:
			jm[k-21] = v
		}
		sys := newGuardSystem(t, paper, Config{}, 0.05)
		err := sys.Compute(ipos, jpos, jm, q.Acc, q.Pot)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			refusal(t, "Compute", err)
			if c := sys.Counters(); c != (Counters{}) {
				t.Fatalf("refused call charged %+v", c)
			}
		} else if err != nil || sys.Counters().Runs != 1 {
			t.Fatalf("finite call: %v, %+v", err, sys.Counters())
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
