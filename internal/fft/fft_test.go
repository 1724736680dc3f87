package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// mustPlan is NewPlan for a length the test knows is valid.
func mustPlan(t *testing.T, n int) *Plan {
	t.Helper()
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	if _, err := NewPlan(12); err == nil {
		t.Error("NewPlan(12) should fail")
	}
	if _, err := NewPlan(0); err == nil {
		t.Error("NewPlan(0) should fail")
	}
}

func TestForwardKnownDFT(t *testing.T) {
	// Impulse transforms to all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	mustPlan(t, 8).Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
	// Constant transforms to N at k=0.
	for i := range x {
		x[i] = 2
	}
	mustPlan(t, 8).Forward(x)
	if cmplx.Abs(x[0]-16) > 1e-12 {
		t.Errorf("DC bin = %v, want 16", x[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestSingleModeFrequency(t *testing.T) {
	// x[n] = exp(2πi·3n/16) must transform to a spike at k=3 of height 16.
	const n, k = 16, 3
	x := make([]complex128, n)
	for i := range x {
		s, c := math.Sincos(2 * math.Pi * k * float64(i) / n)
		x[i] = complex(c, s)
	}
	mustPlan(t, n).Forward(x)
	for i := range x {
		want := complex128(0)
		if i == k {
			want = n
		}
		if cmplx.Abs(x[i]-want) > 1e-10 {
			t.Errorf("bin %d = %v, want %v", i, x[i], want)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	const n = 32
	r := rng.New(1)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Normal(), r.Normal())
	}
	want := naiveDFT(x)
	mustPlan(t, n).Forward(x)
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d: fft %v vs naive %v", i, x[i], want[i])
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			s, c := math.Sincos(-2 * math.Pi * float64(k*j) / float64(n))
			sum += x[j] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256} {
		r := rng.New(uint64(n))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Normal(), r.Normal())
			orig[i] = x[i]
		}
		p := mustPlan(t, n)
		p.Forward(x)
		p.Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("n=%d round trip failed at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

// Property: Parseval's theorem Σ|x|² = (1/N) Σ|X|².
func TestParsevalProperty(t *testing.T) {
	p := mustPlan(t, 64)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := make([]complex128, 64)
		var timeE float64
		for i := range x {
			x[i] = complex(r.Normal(), r.Normal())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		p.Forward(x)
		var freqE float64
		for i := range x {
			freqE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		return math.Abs(timeE-freqE/64) < 1e-8*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: linearity F(a·x + y) = a·F(x) + F(y).
func TestLinearityProperty(t *testing.T) {
	p := mustPlan(t, 32)
	f := func(seed uint64, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 1
		}
		a = math.Mod(a, 100)
		r := rng.New(seed)
		x := make([]complex128, 32)
		y := make([]complex128, 32)
		comb := make([]complex128, 32)
		for i := range x {
			x[i] = complex(r.Normal(), r.Normal())
			y[i] = complex(r.Normal(), r.Normal())
			comb[i] = complex(a, 0)*x[i] + y[i]
		}
		p.Forward(x)
		p.Forward(y)
		p.Forward(comb)
		for i := range comb {
			want := complex(a, 0)*x[i] + y[i]
			if cmplx.Abs(comb[i]-want) > 1e-8*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestForwardPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong length did not panic")
		}
	}()
	mustPlan(t, 8).Forward(make([]complex128, 4))
}
