// Package vec provides small fixed-size vector and box primitives used
// throughout the treecode. All types are plain value types with no
// hidden allocation; hot loops are expected to inline these helpers.
package vec

import "math"

// V3 is a 3-component double-precision vector.
type V3 struct {
	X, Y, Z float64
}

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a V3) Scale(s float64) V3 { return V3{s * a.X, s * a.Y, s * a.Z} }

// Neg returns -a.
func (a V3) Neg() V3 { return V3{-a.X, -a.Y, -a.Z} }

// Dot returns the inner product a · b.
func (a V3) Dot(b V3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Norm2 returns |a|².
func (a V3) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V3) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Dist2 returns |a-b|².
func (a V3) Dist2(b V3) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	dz := a.Z - b.Z
	return dx*dx + dy*dy + dz*dz
}

// MulAdd returns a + s*b, the fused update used by integrators.
func (a V3) MulAdd(s float64, b V3) V3 {
	return V3{a.X + s*b.X, a.Y + s*b.Y, a.Z + s*b.Z}
}

// Min returns the component-wise minimum of a and b. The builtin min
// follows math.Min's rules for ±0 and ±Inf and inlines, where math.Min
// is an out-of-line call on amd64; a NaN component always yields NaN
// (math.Min lets -Inf win over a NaN).
func (a V3) Min(b V3) V3 {
	return V3{min(a.X, b.X), min(a.Y, b.Y), min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b, with the builtin
// max for the reason given at Min.
func (a V3) Max(b V3) V3 {
	return V3{max(a.X, b.X), max(a.Y, b.Y), max(a.Z, b.Z)}
}

// Comp returns the i-th component (0=X, 1=Y, 2=Z). It panics for other i.
func (a V3) Comp(i int) float64 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	case 2:
		return a.Z
	}
	panic("vec: component index out of range")
}

// MaxAbsComp returns the largest |component| of a.
func (a V3) MaxAbsComp() float64 {
	m := math.Abs(a.X)
	if v := math.Abs(a.Y); v > m {
		m = v
	}
	if v := math.Abs(a.Z); v > m {
		m = v
	}
	return m
}

// IsFinite reports whether all components are finite numbers.
func (a V3) IsFinite() bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0) &&
		!math.IsNaN(a.Z) && !math.IsInf(a.Z, 0)
}

// Zero is the zero vector.
var Zero = V3{}
