package vec

import "math"

// Box is an axis-aligned bounding box [Min, Max].
type Box struct {
	Min, Max V3
}

// NewBox returns the box spanning the two corner points in any order.
func NewBox(a, b V3) Box {
	return Box{Min: a.Min(b), Max: a.Max(b)}
}

// EmptyBox returns a box that contains nothing; extending it with any
// point yields a point box.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{Min: V3{inf, inf, inf}, Max: V3{-inf, -inf, -inf}}
}

// Extend returns the smallest box containing b and the point p.
func (b Box) Extend(p V3) Box {
	return Box{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Center returns the box centre point.
func (b Box) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box edge lengths.
func (b Box) Size() V3 { return b.Max.Sub(b.Min) }

// MaxEdge returns the longest edge length.
func (b Box) MaxEdge() float64 { return b.Size().MaxAbsComp() }

// Contains reports whether p lies in the half-open box [Min, Max).
// Points exactly on the Max faces are considered outside, which gives
// octree children a consistent disjoint partition.
func (b Box) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X < b.Max.X &&
		p.Y >= b.Min.Y && p.Y < b.Max.Y &&
		p.Z >= b.Min.Z && p.Z < b.Max.Z
}

// ContainsClosed reports whether p lies in the closed box [Min, Max].
func (b Box) ContainsClosed(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Cube returns the smallest cube centred on b's centre that contains b.
// Octrees are built on cubes so that cells at each level have a single
// side length.
func (b Box) Cube() Box {
	c := b.Center()
	h := b.MaxEdge() / 2
	half := V3{h, h, h}
	return Box{Min: c.Sub(half), Max: c.Add(half)}
}

// Dist2 returns the squared distance from p to the closest point of the
// box (zero when p is inside). This is the distance used by the
// modified tree algorithm's group opening criterion.
func (b Box) Dist2(p V3) float64 {
	var d2 float64
	for i := 0; i < 3; i++ {
		v := p.Comp(i)
		if lo := b.Min.Comp(i); v < lo {
			d := lo - v
			d2 += d * d
		} else if hi := b.Max.Comp(i); v > hi {
			d := v - hi
			d2 += d * d
		}
	}
	return d2
}

// Octant returns the child index (bit 0 = X high, bit 1 = Y high,
// bit 2 = Z high) of the octant of the box containing p, measured from
// the box centre.
func (b Box) Octant(p V3) int {
	c := b.Center()
	idx := 0
	if p.X >= c.X {
		idx |= 1
	}
	if p.Y >= c.Y {
		idx |= 2
	}
	if p.Z >= c.Z {
		idx |= 4
	}
	return idx
}

// Child returns the sub-box for octant idx as defined by Octant.
func (b Box) Child(idx int) Box {
	c := b.Center()
	var child Box
	if idx&1 != 0 {
		child.Min.X, child.Max.X = c.X, b.Max.X
	} else {
		child.Min.X, child.Max.X = b.Min.X, c.X
	}
	if idx&2 != 0 {
		child.Min.Y, child.Max.Y = c.Y, b.Max.Y
	} else {
		child.Min.Y, child.Max.Y = b.Min.Y, c.Y
	}
	if idx&4 != 0 {
		child.Min.Z, child.Max.Z = c.Z, b.Max.Z
	} else {
		child.Min.Z, child.Max.Z = b.Min.Z, c.Z
	}
	return child
}
