package hostk

// MACSink is one receiving group's side of the multipole acceptance
// criterion: its bounding box and the squared opening parameter. A
// batch of candidate cells is tested against the sink in MACWidth
// lanes — the SoA counterpart of octree.OpenCriterion.Accept fed by
// vec.Box.Dist2, bitwise identical to that pair for finite inputs
// (the conformance tests pin the equivalence, including zero-size
// cells, θ=0 and cells touching the box surface).
type MACSink struct {
	MinX, MinY, MinZ float64
	MaxX, MaxY, MaxZ float64
	// Theta2 is θ² (precompute as theta*theta — the scalar criterion
	// evaluates `theta*theta*d2` left-associated, so this grouping is
	// required for bit equality).
	Theta2 float64
}

// Accept writes out[k] = (eff[k]² < θ²·d²) for every lane, where d² is
// the squared distance from the sink box to the candidate's centre of
// mass (x,y,z) and eff is the cell's edge length. All MACWidth lanes are evaluated unconditionally — callers
// batching fewer candidates leave stale-but-finite values in the upper
// lanes and ignore their verdicts.
//
// The per-axis clamp max(lo-v, v-hi, 0) replaces the two data-dependent
// branches of the scalar box distance with MAXSD instructions; for
// finite inputs it is bitwise identical (the extra +0 contributions of
// inside axes are IEEE-754 addition identities, and Go's builtin max
// orders -0 below +0 so a boundary axis yields +0 exactly like the
// scalar skip).
func (s *MACSink) Accept(x, y, z, eff *[MACWidth]float64, out *[MACWidth]bool) {
	for k := 0; k < MACWidth; k++ {
		dx := max(s.MinX-x[k], x[k]-s.MaxX, 0)
		dy := max(s.MinY-y[k], y[k]-s.MaxY, 0)
		dz := max(s.MinZ-z[k], z[k]-s.MaxZ, 0)
		d2 := dx*dx + dy*dy + dz*dz
		out[k] = eff[k]*eff[k] < s.Theta2*d2
	}
}
