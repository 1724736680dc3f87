package octree

// OpenCriterion is the multipole acceptance criterion (MAC) deciding
// whether a cell may be used as a single point mass from a given
// squared distance, or must be opened.
type OpenCriterion struct {
	// Theta is the Barnes-Hut opening parameter. Smaller is more
	// accurate; 0 forces full opening (degenerates to direct summation).
	Theta float64
}

// Accept reports whether the cell n may be approximated by its centre
// of mass when the squared distance from the field point (or from the
// receiving group's surface) to n.COM is d2.
//
// Tree.Walk evaluates the same predicate written out inline, so a
// change here is a change there; TestWalkMatchesReference and hostk's
// TestSoAMatchesScalar pin the two together.
func (c OpenCriterion) Accept(n *Node, d2 float64) bool {
	// Accept when s < θ·d, i.e. s² < θ²·d², with s the cell edge.
	return n.Size*n.Size < c.Theta*c.Theta*d2
}
