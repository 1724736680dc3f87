package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewBoxOrdersCorners(t *testing.T) {
	b := NewBox(V3{1, -2, 3}, V3{-1, 2, 0})
	if b.Min != (V3{-1, -2, 0}) || b.Max != (V3{1, 2, 3}) {
		t.Errorf("NewBox = %+v", b)
	}
}

func TestEmptyBox(t *testing.T) {
	b := EmptyBox()
	p := V3{1, 2, 3}
	if b.ContainsClosed(p) {
		t.Error("EmptyBox contains a point")
	}
	if lo, hi := b.Min.Min(p), b.Max.Max(p); lo != p || hi != p {
		t.Errorf("point box = %+v, %+v", lo, hi)
	}
}

func TestCenterSize(t *testing.T) {
	b := NewBox(V3{0, 0, 0}, V3{2, 4, 6})
	if b.Center() != (V3{1, 2, 3}) {
		t.Errorf("Center = %v", b.Center())
	}
	if b.Size() != (V3{2, 4, 6}) {
		t.Errorf("Size = %v", b.Size())
	}
	if b.MaxEdge() != 6 {
		t.Errorf("MaxEdge = %v", b.MaxEdge())
	}
}

func TestContainsHalfOpen(t *testing.T) {
	b := NewBox(V3{0, 0, 0}, V3{1, 1, 1})
	if !b.Contains(V3{0, 0, 0}) {
		t.Error("Min corner should be inside")
	}
	if b.Contains(V3{1, 0.5, 0.5}) {
		t.Error("Max face should be outside (half-open)")
	}
	if !b.ContainsClosed(V3{1, 1, 1}) {
		t.Error("Max corner should be inside closed box")
	}
}

func TestCube(t *testing.T) {
	b := NewBox(V3{0, 0, 0}, V3{2, 4, 1})
	c := b.Cube()
	sz := c.Size()
	if sz.X != 4 || sz.Y != 4 || sz.Z != 4 {
		t.Errorf("Cube size = %v", sz)
	}
	if c.Center() != b.Center() {
		t.Errorf("Cube recentred: %v vs %v", c.Center(), b.Center())
	}
	// Cube must contain the original box.
	if !c.ContainsClosed(b.Min) || !c.ContainsClosed(b.Max) {
		t.Error("Cube does not contain original box")
	}
}

func TestBoxDist2(t *testing.T) {
	b := NewBox(V3{0, 0, 0}, V3{1, 1, 1})
	if d := b.Dist2(V3{0.5, 0.5, 0.5}); d != 0 {
		t.Errorf("inside point Dist2 = %v", d)
	}
	if d := b.Dist2(V3{2, 0.5, 0.5}); d != 1 {
		t.Errorf("face point Dist2 = %v", d)
	}
	if d := b.Dist2(V3{2, 2, 0.5}); d != 2 {
		t.Errorf("edge point Dist2 = %v", d)
	}
	if d := b.Dist2(V3{2, 2, 2}); d != 3 {
		t.Errorf("corner point Dist2 = %v", d)
	}
}

func TestOctantChildRoundTrip(t *testing.T) {
	b := NewBox(V3{-1, -1, -1}, V3{1, 1, 1})
	for idx := 0; idx < 8; idx++ {
		child := b.Child(idx)
		p := child.Center()
		if got := b.Octant(p); got != idx {
			t.Errorf("Octant(Child(%d).Center()) = %d", idx, got)
		}
		if !child.Contains(p) {
			t.Errorf("child %d does not contain its own centre", idx)
		}
	}
}

// Property: the 8 children partition the parent box — every interior
// point is contained in exactly one child (half-open convention).
func TestChildrenPartitionProperty(t *testing.T) {
	b := NewBox(V3{-2, -2, -2}, V3{2, 2, 2})
	f := func(x, y, z float64) bool {
		p := V3{math.Mod(math.Abs(x), 3.9) - 1.95, math.Mod(math.Abs(y), 3.9) - 1.95, math.Mod(math.Abs(z), 3.9) - 1.95}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) {
			return true
		}
		count := 0
		for idx := 0; idx < 8; idx++ {
			if b.Child(idx).Contains(p) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist2 is zero iff the point is in the closed box, and is
// bounded above by the distance to the box centre.
func TestDist2Property(t *testing.T) {
	b := NewBox(V3{-1, -0.5, 0}, V3{1, 0.5, 2})
	f := func(x, y, z float64) bool {
		p := V3{clamp(x), clamp(y), clamp(z)}
		d2 := b.Dist2(p)
		if b.ContainsClosed(p) != (d2 == 0) {
			return false
		}
		return d2 <= p.Sub(b.Center()).Norm2()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
