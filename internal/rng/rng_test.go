package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	if v == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d far from uniform 10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sum2, sum4 float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sum2 += v * v
		sum4 += v * v * v * v
	}
	mean := sum / n
	variance := sum2 / n
	kurt := sum4 / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
	if math.Abs(kurt-3) > 0.1 {
		t.Errorf("normal 4th moment = %v, want ~3", kurt)
	}
}

func TestUnitSphere(t *testing.T) {
	r := New(9)
	var sx, sy, sz float64
	for i := 0; i < 20000; i++ {
		x, y, z := r.UnitSphere()
		if math.Abs(x*x+y*y+z*z-1) > 1e-12 {
			t.Fatalf("not on unit sphere: %v %v %v", x, y, z)
		}
		sx += x
		sy += y
		sz += z
	}
	n := 20000.0
	if math.Abs(sx/n) > 0.02 || math.Abs(sy/n) > 0.02 || math.Abs(sz/n) > 0.02 {
		t.Errorf("sphere mean = (%v,%v,%v), want ~0", sx/n, sy/n, sz/n)
	}
}

func TestInBall(t *testing.T) {
	r := New(13)
	var inHalf int
	const n = 50000
	for i := 0; i < n; i++ {
		x, y, z := r.InBall()
		r2 := x*x + y*y + z*z
		if r2 > 1 {
			t.Fatalf("outside unit ball: r2=%v", r2)
		}
		if r2 < 0.25 { // |r| < 0.5 -> volume fraction 1/8
			inHalf++
		}
	}
	frac := float64(inHalf) / n
	if math.Abs(frac-0.125) > 0.01 {
		t.Errorf("inner-half fraction = %v, want ~0.125", frac)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
