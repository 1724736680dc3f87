// Package hostk holds the host's struct-of-arrays (SoA) force kernel:
// the float64 pairwise force evaluation (P2P) used by the host engine
// and the guard's reference check, its source list (JList), and the
// retired scalar loop kept as the differential-conformance baseline
// (ScalarAccumulate).
//
// # Layout and determinism
//
// Sources are carried in a JList: four parallel float64 slices plus the
// real entry count N. Pad appends zero-mass lanes at the origin until
// the slice length is a multiple of JTile, so the P2P inner loop runs
// fixed-width tiles with no per-lane length branch. Padding is a
// bitwise no-op by IEEE-754 argument (DESIGN.md §13): every pad lane
// contributes ±0 to each accumulator, accumulators initialised to +0
// and fed only additions can never hold -0, and x + ±0 == x for any
// x != -0. The same argument covers the zero-separation select inside
// the loop, which replaces the scalar kernel's `continue` with a
// zero-mass substitution so the lane sequence never branches.
//
// Summation order is strictly lane order — identical to the retired
// scalar loop — so results are bitwise identical to ScalarAccumulate
// for any batch, padded or not. The conformance tests and the fuzz
// harness pin this with == on the float64 bit patterns.
package hostk

// JTile is the P2P tile width: the inner loop consumes JTile lanes per
// iteration through fixed-size array views (bounds checks hoisted),
// with a scalar remainder loop for unpadded lists.
const JTile = 8

// JList is one force batch's shared source list ("j-particles": real
// particles and accepted cells' centres of mass alike) in SoA layout.
// The four slices always have equal length; lanes [N, len(X)) are
// zero-mass padding appended by Pad. Append must not be called after
// Pad (Reset first).
type JList struct {
	X, Y, Z, M []float64
	// N is the number of real sources.
	N int
}

// Reset empties the list, retaining capacity.
func (l *JList) Reset() {
	l.X, l.Y, l.Z, l.M = l.X[:0], l.Y[:0], l.Z[:0], l.M[:0]
	l.N = 0
}

// Append adds one real source lane.
func (l *JList) Append(x, y, z, m float64) {
	l.X = append(l.X, x)
	l.Y = append(l.Y, y)
	l.Z = append(l.Z, z)
	l.M = append(l.M, m)
	l.N++
}

// Pad appends zero-mass lanes at the origin until the lane count is a
// multiple of JTile. N is unchanged.
func (l *JList) Pad() {
	for len(l.X)%JTile != 0 {
		l.X = append(l.X, 0)
		l.Y = append(l.Y, 0)
		l.Z = append(l.Z, 0)
		l.M = append(l.M, 0)
	}
}

// Len returns the lane count including padding (>= N).
func (l *JList) Len() int { return len(l.X) }

// CopyFrom replaces the list's contents with a copy of src (padding
// included), reusing capacity — the staging path of the sharded
// cluster, which must snapshot a caller's list without allocating in
// steady state.
func (l *JList) CopyFrom(src *JList) {
	l.X = append(l.X[:0], src.X...)
	l.Y = append(l.Y[:0], src.Y...)
	l.Z = append(l.Z[:0], src.Z...)
	l.M = append(l.M[:0], src.M...)
	l.N = src.N
}
