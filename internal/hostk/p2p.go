package hostk

import (
	"math"

	"repro/internal/vec"
)

// P2PPair accumulates the softened gravitational acceleration and
// potential exerted by the l.N lanes of l on two field points, p and q,
// in one sweep. Each point has its own accumulators fed in strict lane
// order with the scalar loop's operation shapes — the summation order
// contract that makes each result bitwise identical to the retired
// scalar loop (ScalarAccumulate with one i-particle and G=1), whatever
// the other point is. Zero-separation lanes (the self-interaction
// guard) contribute exactly nothing via the zero-mass select; see the
// package comment for the IEEE-754 argument.
//
// The two points are for latency, not arithmetic: one point's
// sqrt/divide chain waits on the previous lane's, and the second
// point's chain overlaps that wait. A caller with one point passes it
// twice and drops the copy.
func P2PPair(p, q vec.V3, l *JList, eps2 float64) (accP vec.V3, potP float64, accQ vec.V3, potQ float64) {
	n := l.N
	// Reslicing to a common length hoists the bounds checks out of the
	// loop.
	x, y, z, m := l.X[:n], l.Y[:n], l.Z[:n], l.M[:n]
	var pax, pay, paz, ppot, qax, qay, qaz, qpot float64
	for j := range x {
		xj, yj, zj, mj := x[j], y[j], z[j], m[j]

		dx := xj - p.X
		dy := yj - p.Y
		dz := zj - p.Z
		r2 := dx*dx + dy*dy + dz*dz
		mp := mj
		if r2 == 0 {
			// Zero-separation select: substitute a massless source at
			// unit distance instead of branching out of the lane.
			mp = 0
			r2 = 1
		}
		r2 += eps2
		inv := 1 / math.Sqrt(r2)
		inv3 := inv / r2

		ex := xj - q.X
		ey := yj - q.Y
		ez := zj - q.Z
		s2 := ex*ex + ey*ey + ez*ez
		mq := mj
		if s2 == 0 {
			mq = 0
			s2 = 1
		}
		s2 += eps2
		sinv := 1 / math.Sqrt(s2)
		sinv3 := sinv / s2

		pax += mp * inv3 * dx
		pay += mp * inv3 * dy
		paz += mp * inv3 * dz
		ppot -= mp * inv
		qax += mq * sinv3 * ex
		qay += mq * sinv3 * ey
		qaz += mq * sinv3 * ez
		qpot -= mq * sinv
	}
	return vec.V3{X: pax, Y: pay, Z: paz}, ppot, vec.V3{X: qax, Y: qay, Z: qaz}, qpot
}
