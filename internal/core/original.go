package core

import (
	"time"

	"repro/internal/hostk"
	"repro/internal/nbody"
	"repro/internal/octree"
	"repro/internal/vec"
)

// ComputeForcesOriginal runs the original Barnes-Hut algorithm: one
// tree walk and one interaction list per particle, each list handed to
// the engine as a batch of i-count 1. On the host engine it is the
// accuracy baseline; on a GRAPE engine it is the §3 counterfactual
// (per-particle batches leave 95 of the 96 virtual pipelines idle and
// the host walks N times instead of N/n_g times — why Barnes' modified
// algorithm exists). Use ComputeForces for real work.
func (tc *Treecode) ComputeForcesOriginal(s *nbody.System) (*Stats, error) {
	return tc.walkOriginal(s, true)
}

// CountOriginal returns only the interaction count of the original
// algorithm without building lists or computing forces — the cheap
// estimator the paper used on five snapshots to derive its effective
// operation count (its §5 "correction").
func (tc *Treecode) CountOriginal(s *nbody.System) (int64, error) {
	st, err := tc.walkOriginal(s, false)
	if err != nil {
		return 0, err
	}
	return st.Interactions, nil
}

// walkOriginal is the per-particle driver: it builds the tree, walks
// every particle over equal static chunks of the Morton order, and —
// when forces is set — dispatches each particle's list to the engine
// and returns the failure a batched engine reports at Flush.
func (tc *Treecode) walkOriginal(s *nbody.System, forces bool) (*Stats, error) {
	o := tc.Opt.withDefaults()
	n := s.N()
	stats := &Stats{N: n, Groups: n, MinList: -1}

	t0 := time.Now()
	tree, err := tc.rebuildTree(s, o)
	if err != nil {
		return nil, err
	}
	stats.BuildTime = time.Since(t0)

	mac := octree.OpenCriterion{Theta: o.Theta, UseBmax: o.UseBmax}
	workers := min(o.Workers, n)
	tc.ensureWorkerScratch(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w*chunk < n; w++ {
		tc.wg.Add(1)
		go tc.originalWorker(tc.bufs[w], tree, w*chunk, min((w+1)*chunk, n), mac, forces, stats)
	}
	tc.wg.Wait()
	if be, ok := tc.Engine.(BatchedEngine); ok && forces {
		if err := be.Flush(); err != nil {
			return nil, err
		}
	}
	if stats.MinList < 0 {
		stats.MinList = 0
	}
	return stats, nil
}

// originalWorker walks particles [lo, hi) with one worker's persistent
// scratch and folds its statistics into stats.
func (tc *Treecode) originalWorker(buf *listBuf, tree *octree.Tree, lo, hi int,
	mac octree.OpenCriterion, forces bool, stats *Stats) {
	defer tc.wg.Done()
	s := tree.Sys
	local := Stats{MinList: -1, Active: int64(hi - lo)}
	var j *hostk.JList
	if forces {
		j = &buf.J
	}
	var req Request // hoisted: &req must not escape a loop iteration
	t0 := time.Now()
	for i := lo; i < hi; i++ {
		nj, visited := buf.particleList(tree, i, mac, j)
		local.addList(1, nj)
		local.NodesVisited += visited
		if j == nil {
			continue
		}
		tc0 := time.Now()
		s.Acc[i], s.Pot[i] = vec.Zero, 0
		req = Request{IPos: s.Pos[i : i+1], J: *j, Acc: s.Acc[i : i+1], Pot: s.Pot[i : i+1]}
		tc.Engine.Accumulate(&req)
		local.ComputeTime += time.Since(tc0)
	}
	local.WalkTime = time.Since(t0) - local.ComputeTime
	tc.statsMu.Lock()
	stats.merge(&local)
	tc.statsMu.Unlock()
}

// particleList is the original algorithm's walk for field particle i:
// accepted cells contribute their centre of mass, opened leaves their
// particles except i itself (engines guard zero-distance pairs anyway;
// excluding it keeps the list length equal to the interaction count).
// With a list, j is reset, filled in visit order and padded; with
// j == nil nothing is emitted and a leaf is taken in O(1), which is what
// keeps CountOriginal cheap at the paper's N. Returns the list length
// and the number of tree nodes visited.
//
// The inner loop descends to the next node that ends a branch of the
// walk and counts it; only a list leaves it, to emit that node in the
// outer loop. Emitting inside the descent costs the count-only walk
// ~8 % (the append calls keep the stack and counters out of registers).
func (b *listBuf) particleList(tree *octree.Tree, i int, mac octree.OpenCriterion, j *hostk.JList) (entries int, visited int64) {
	s := tree.Sys
	pi := s.Pos[i]
	if j != nil {
		j.Reset()
	}
	st := append(b.stack[:0], 0)
	for {
		var end *octree.Node
		accepted := false
		for len(st) > 0 {
			n := &tree.Nodes[st[len(st)-1]]
			st = st[:len(st)-1]
			visited++
			if mac.Accept(n, pi.Dist2(n.COM)) {
				entries++
				if j != nil {
					end, accepted = n, true
					break
				}
				continue
			}
			if n.Leaf {
				entries += int(n.Count)
				if i >= int(n.Start) && i < int(n.Start+n.Count) {
					entries--
				}
				if j != nil {
					end = n
					break
				}
				continue
			}
			for _, c := range n.Children {
				if c != octree.NoChild {
					st = append(st, c)
				}
			}
		}
		if end == nil {
			break
		}
		if accepted {
			j.Append(end.COM.X, end.COM.Y, end.COM.Z, end.Mass)
			continue
		}
		for k := end.Start; k < end.Start+end.Count; k++ {
			if int(k) != i {
				p := s.Pos[k]
				j.Append(p.X, p.Y, p.Z, s.Mass[k])
			}
		}
	}
	b.stack = st
	if j != nil {
		j.Pad()
	}
	return entries, visited
}
