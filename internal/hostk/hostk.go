// Package hostk holds the host's struct-of-arrays (SoA) force kernel:
// the float64 pairwise force evaluation (P2PPair) used by the host
// engine and the guard's reference check, its source list (JList), and
// the retired scalar loop kept as the differential-conformance baseline
// (ScalarAccumulate).
//
// # Layout and determinism
//
// Sources are carried in a JList: four parallel float64 slices plus the
// entry count N. P2PPair sweeps exactly N lanes for two field points at
// once; the zero-separation select inside the loop replaces the scalar
// kernel's `continue` with a zero-mass substitution, so the lane
// sequence never branches. Accumulators start at +0 and only add, so
// they never hold -0, and the substituted lane's ±0 is a bitwise no-op
// (DESIGN.md §13).
//
// Each point's summation order is strictly lane order with its own
// accumulators — identical to the retired scalar loop — so results are
// bitwise identical to ScalarAccumulate for any batch and either point.
// The conformance tests and the fuzz harness pin this with == on the
// float64 bit patterns.
package hostk

// JList is one force batch's shared source list ("j-particles": real
// particles and accepted cells' centres of mass alike) in SoA layout.
// The four slices always have length N.
type JList struct {
	X, Y, Z, M []float64
	// N is the number of sources.
	N int
}

// Reset empties the list, retaining capacity.
func (l *JList) Reset() {
	l.X, l.Y, l.Z, l.M = l.X[:0], l.Y[:0], l.Z[:0], l.M[:0]
	l.N = 0
}

// Append adds one source lane.
func (l *JList) Append(x, y, z, m float64) {
	l.X = append(l.X, x)
	l.Y = append(l.Y, y)
	l.Z = append(l.Z, z)
	l.M = append(l.M, m)
	l.N++
}

// CopyFrom replaces the list's contents with a copy of src, reusing
// capacity: a private snapshot of a list the caller does not own.
func (l *JList) CopyFrom(src *JList) {
	l.X = append(l.X[:0], src.X...)
	l.Y = append(l.Y[:0], src.Y...)
	l.Z = append(l.Z[:0], src.Z...)
	l.M = append(l.M[:0], src.M...)
	l.N = src.N
}
