package g5

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRoundMantissaExact(t *testing.T) {
	// Values already representable in few bits pass through.
	for _, v := range []float64{1, 2, 0.5, 1.5, -3, 0} {
		if got := RoundMantissa(v, 4); got != v {
			t.Errorf("RoundMantissa(%v, 4) = %v", v, got)
		}
	}
}

func TestRoundMantissaKnown(t *testing.T) {
	// 1.0625 = 1 + 1/16 with 2 mantissa bits rounds to 1.0.
	if got := RoundMantissa(1.0625, 2); got != 1.0 {
		t.Errorf("got %v, want 1.0", got)
	}
	// 1.1875 = 1 + 3/16 with 2 bits rounds to 1.25.
	if got := RoundMantissa(1.1875, 2); got != 1.25 {
		t.Errorf("got %v, want 1.25", got)
	}
	// Carry across a power of two: 1.96875 with 2 bits rounds to 2.0.
	if got := RoundMantissa(1.96875, 2); got != 2.0 {
		t.Errorf("got %v, want 2.0", got)
	}
}

func TestRoundMantissaSpecials(t *testing.T) {
	if got := RoundMantissa(math.Inf(1), 4); !math.IsInf(got, 1) {
		t.Errorf("Inf -> %v", got)
	}
	if got := RoundMantissa(1.23456, 52); got != 1.23456 {
		t.Errorf("52 bits should pass through, got %v", got)
	}
}

// Property: relative rounding error is bounded by 2^-(bits+1) (half an
// ulp at the given precision) and the sign is preserved.
func TestRoundMantissaErrorBoundProperty(t *testing.T) {
	f := func(x float64, bits uint) bool {
		// The bound holds for normal floats away from overflow; the
		// doc comment scopes out ±MaxFloat64 neighbourhoods and
		// subnormals.
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 ||
			math.Abs(x) > 1e300 || math.Abs(x) < 1e-300 {
			return true
		}
		b := 2 + bits%10 // 2..11 bits
		got := RoundMantissa(x, b)
		rel := math.Abs(got-x) / math.Abs(x)
		if rel > math.Exp2(-float64(b))/2*(1+1e-12) {
			return false
		}
		return math.Signbit(got) == math.Signbit(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rounding is idempotent.
func TestRoundMantissaIdempotentProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		once := RoundMantissa(x, 7)
		return RoundMantissa(once, 7) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rounding is monotone (order-preserving) for positive values.
func TestRoundMantissaMonotoneProperty(t *testing.T) {
	r := rng.New(4)
	prevIn, prevOut := 0.0, 0.0
	for i := 0; i < 10000; i++ {
		x := math.Exp(r.Uniform(-20, 20))
		y := RoundMantissa(x, 6)
		if i > 0 {
			if (x > prevIn && y < prevOut) || (x < prevIn && y > prevOut) {
				t.Fatalf("monotonicity violated: f(%v)=%v but f(%v)=%v", prevIn, prevOut, x, y)
			}
		}
		prevIn, prevOut = x, y
	}
}

func TestFixedGridQuantize(t *testing.T) {
	g := NewFixedGrid(-1, 1, 4) // 16 steps of 0.125
	if g.step != 0.125 {
		t.Errorf("step = %v", g.step)
	}
	v, ok := g.Quantize(0)
	if !ok || v != 0 {
		t.Errorf("Quantize(0) = %v, %v", v, ok)
	}
	v, ok = g.Quantize(0.06) // nearest grid point is 0.125*round(0.48)=0
	if !ok || v != 0.0 {
		t.Errorf("Quantize(0.06) = %v, %v", v, ok)
	}
	// Out of range clamps and reports.
	v, ok = g.Quantize(5)
	if ok {
		t.Error("out-of-range reported ok")
	}
	if v > 1 || v < 0.8 {
		t.Errorf("clamped value = %v", v)
	}
	v, ok = g.Quantize(-5)
	if ok || v != -1 {
		t.Errorf("low clamp = %v, %v", v, ok)
	}
}

// Property: quantisation error is bounded by half a step inside the range.
func TestFixedGridErrorBoundProperty(t *testing.T) {
	g := NewFixedGrid(-10, 10, 16)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 9.99)
		v, ok := g.Quantize(x)
		return ok && math.Abs(v-x) <= g.step/2*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// roundMantissaRef is RoundMantissa's body as it stood before the
// precomputed rounder, kept verbatim as the oracle: the rounder must
// return the same bit pattern for every (value, bit budget).
func roundMantissaRef(v float64, bits uint) float64 {
	if bits >= 52 || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	b := math.Float64bits(v)
	shift := 52 - bits
	round := uint64(1) << (shift - 1)
	mantAndExp := b &^ (1 << 63)
	sign := b & (1 << 63)
	mantAndExp += round // may carry into the exponent: correct rounding across powers of two
	mantAndExp &^= (uint64(1) << shift) - 1
	return math.Float64frombits(sign | mantAndExp)
}

// checkRoundMatchesRef compares RoundMantissa with the oracle on the
// bit pattern, so a zero's sign cannot hide.
func checkRoundMatchesRef(t *testing.T, v float64, bits uint) {
	t.Helper()
	got, want := math.Float64bits(RoundMantissa(v, bits)), math.Float64bits(roundMantissaRef(v, bits))
	if got != want {
		t.Fatalf("RoundMantissa(%016x, %d) = %016x, reference %016x", math.Float64bits(v), bits, got, want)
	}
}

func TestRoundMantissaMatchesReference(t *testing.T) {
	patterns := []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		1, 0x0008000000000000, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, // subnormals
		0x0010000000000000,                     // smallest normal
		0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, // ±MaxFloat64
	}
	for _, k := range []int{-1022, -600, -1, 0, 1, 7, 52, 53, 600, 1023} {
		p := math.Float64bits(math.Ldexp(1, k))
		patterns = append(patterns, p-1, p, p+1, p-1|1<<63, p+1|1<<63) // 2^k ± 1 ulp
	}
	r := rng.New(17)
	for len(patterns) < 2000 {
		if p := r.Uint64(); !math.IsNaN(math.Float64frombits(p)) {
			patterns = append(patterns, p)
		}
	}
	for bits := uint(0); bits <= 63; bits++ {
		for _, p := range patterns {
			checkRoundMatchesRef(t, math.Float64frombits(p), bits)
		}
	}
}

// TestRoundInPlaceMatchesRound: the one rounding form adds to the word
// in place, where the reference splits off the sign; on every bit
// pattern that is not a NaN the two agree at every budget the pipeline
// tests run (round's comment has the argument).
func TestRoundInPlaceMatchesRound(t *testing.T) {
	const inf = 0x7FF0000000000000
	patterns := []uint64{0, 1, inf - 1, inf, 1 << 63, 1<<63 | 1, 1<<63 | (inf - 1), 1<<63 | inf}
	r := rng.New(29)
	for len(patterns) < 1_000_000 {
		if p := r.Uint64(); p&^(1<<63) <= inf {
			patterns = append(patterns, p)
		}
	}
	for _, bits := range pipelineBitBudgets {
		rd := newRounder(bits)
		for _, p := range patterns {
			v := math.Float64frombits(p)
			if got, want := math.Float64bits(rd.round(v)), math.Float64bits(roundMantissaRef(v, bits)); got != want {
				t.Fatalf("%d bits, %016x: in place %016x, reference %016x", bits, p, got, want)
			}
		}
	}
}
