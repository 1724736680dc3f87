package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func v3ApproxEq(a, b V3, tol float64) bool {
	return approxEq(a.X, b.X, tol) && approxEq(a.Y, b.Y, tol) && approxEq(a.Z, b.Z, tol)
}

func TestAddSub(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-4, 5, 0.5}
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("Add then Sub = %v, want %v", got, a)
	}
}

func TestScaleNeg(t *testing.T) {
	a := V3{1, -2, 3}
	if got := a.Scale(2); got != (V3{2, -4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != (V3{-1, 2, -3}) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := V3{1, 0, 0}
	y := V3{0, 1, 0}
	z := V3{0, 0, 1}
	if got := x.Cross(y); got != z {
		t.Errorf("x × y = %v, want %v", got, z)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y × z = %v, want %v", got, x)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x · y = %v", got)
	}
	if got := (V3{1, 2, 3}).Dot(V3{4, 5, 6}); got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
}

func TestNormDist(t *testing.T) {
	a := V3{3, 4, 0}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	if a.Norm2() != 25 {
		t.Errorf("Norm2 = %v", a.Norm2())
	}
	b := V3{0, 0, 12}
	if got := a.Dist2(b); got != 169 {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestMulAdd(t *testing.T) {
	a := V3{1, 1, 1}
	b := V3{2, 3, 4}
	if got := a.MulAdd(0.5, b); got != (V3{2, 2.5, 3}) {
		t.Errorf("MulAdd = %v", got)
	}
}

func TestCompSetComp(t *testing.T) {
	a := V3{7, 8, 9}
	for i, want := range []float64{7, 8, 9} {
		if got := a.Comp(i); got != want {
			t.Errorf("Comp(%d) = %v, want %v", i, got, want)
		}
	}
	if got := a.SetComp(1, -1); got != (V3{7, -1, 9}) {
		t.Errorf("SetComp = %v", got)
	}
	// Receiver must be unchanged (value semantics).
	if a != (V3{7, 8, 9}) {
		t.Errorf("SetComp mutated receiver: %v", a)
	}
}

func TestCompPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Comp(3) did not panic")
		}
	}()
	_ = (V3{}).Comp(3)
}

func TestMaxAbsComp(t *testing.T) {
	if got := (V3{1, -5, 3}).MaxAbsComp(); got != 5 {
		t.Errorf("MaxAbsComp = %v", got)
	}
	if got := (V3{-1, 0, -0.5}).MaxAbsComp(); got != 1 {
		t.Errorf("MaxAbsComp = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(V3{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (V3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (V3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

// Property: the cross product is orthogonal to both factors.
func TestCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3{clamp(ax), clamp(ay), clamp(az)}
		b := V3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return math.Abs(c.Dot(a)) <= 1e-9*scale*scale && math.Abs(c.Dot(b)) <= 1e-9*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a+b|² = |a|² + 2a·b + |b|².
func TestNormExpansionProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3{clamp(ax), clamp(ay), clamp(az)}
		b := V3{clamp(bx), clamp(by), clamp(bz)}
		lhs := a.Add(b).Norm2()
		rhs := a.Norm2() + 2*a.Dot(b) + b.Norm2()
		return approxEq(lhs, rhs, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary quick-generated floats into a tame range so the
// algebraic identities are not dominated by overflow.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
