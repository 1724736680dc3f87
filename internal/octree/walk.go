package octree

import (
	"repro/internal/hostk"
	"repro/internal/vec"
)

// Walk is the tree walk of both force algorithms. It lists what the
// field box sink sees: the centres of mass of the cells mac accepts and
// the particles of the leaves it opens, except particle self (the
// original algorithm's field particle, whose sink is the zero-size box
// at its position; the modified algorithm's groups pass -1). A group's
// own cell is never accepted (its surface distance to its own contents
// is zero), so group members enter the list as direct particles —
// exactly Barnes' formulation. With a list, j is reset, filled in visit
// order and padded; with j == nil nothing is emitted and a leaf costs
// O(1), which keeps the original algorithm's count-only walk cheap at
// the paper's N. Returns the list length, the number of cell
// (centre-of-mass) entries and the nodes visited.
//
// The nodes are stored in the order the walk visits them (see Tree), so
// the walk is one forward loop with no stack: an accepted cell or an
// opened leaf jumps to its Next, any other opened cell steps to the
// next node, its first child.
//
// The MAC is mac.Accept on sink.Dist2(n.COM), written out here so that
// it inlines (as a call it costs the loop a fifth of its time): the
// same three per-axis terms, outside axes only, summed in the same
// order, so the verdict is the same bit for bit. For a zero-size sink
// that sum equals vec.V3.Dist2 bit for bit too.
func (t *Tree) Walk(sink vec.Box, mac OpenCriterion, self int32, j *hostk.JList) (entries, cells int, visited int64) {
	nodes, s := t.Nodes, t.Sys
	theta2 := mac.Theta * mac.Theta
	if j != nil {
		j.Reset()
	}
	for i := 0; i < len(nodes); {
		n := &nodes[i]
		visited++
		var d2 float64
		if v := n.COM.X; v < sink.Min.X {
			d2 = (sink.Min.X - v) * (sink.Min.X - v)
		} else if v > sink.Max.X {
			d2 = (v - sink.Max.X) * (v - sink.Max.X)
		}
		if v := n.COM.Y; v < sink.Min.Y {
			d2 += (sink.Min.Y - v) * (sink.Min.Y - v)
		} else if v > sink.Max.Y {
			d2 += (v - sink.Max.Y) * (v - sink.Max.Y)
		}
		if v := n.COM.Z; v < sink.Min.Z {
			d2 += (sink.Min.Z - v) * (sink.Min.Z - v)
		} else if v > sink.Max.Z {
			d2 += (v - sink.Max.Z) * (v - sink.Max.Z)
		}
		switch {
		case n.Size*n.Size < theta2*d2:
			cells++
			if j != nil {
				j.Append(n.COM.X, n.COM.Y, n.COM.Z, n.Mass)
			}
			i = int(n.Next)
		case n.Leaf:
			entries += int(n.Count)
			if self >= n.Start && self < n.Start+n.Count {
				entries--
			}
			if j != nil {
				for k := n.Start; k < n.Start+n.Count; k++ {
					if k != self {
						p := s.Pos[k]
						j.Append(p.X, p.Y, p.Z, s.Mass[k])
					}
				}
			}
			i = int(n.Next)
		default:
			i++
		}
	}
	if j != nil {
		j.Pad()
	}
	return entries + cells, cells, visited
}
