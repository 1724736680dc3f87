package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostk"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/octree"
	"repro/internal/vec"
)

// Options configure a treecode force calculation.
type Options struct {
	// Theta is the Barnes-Hut opening parameter (default DefaultTheta).
	Theta float64
	// UseBmax selects the conservative bmax opening criterion.
	UseBmax bool
	// Ncrit is the maximum group population of the modified algorithm
	// (the paper's n_g knob; default DefaultNcrit).
	Ncrit int
	// LeafCap is the octree leaf capacity (default 8).
	LeafCap int
	// G is the gravitational constant (default 1).
	G float64
	// Eps is the Plummer softening length.
	Eps float64
	// Workers sets the traversal parallelism; 0 means GOMAXPROCS.
	Workers int
	// RebuildEvery sets the tree-reuse period: a full Morton sort and
	// rebuild happens every RebuildEvery-th ComputeForces call on the
	// same system, with cheap centre-of-mass refreshes in between.
	// 0 or 1 disables reuse (rebuild every call, the paper's mode).
	// Reuse trades a drift-bounded force approximation for amortised
	// build cost; see the ablation benchmarks.
	RebuildEvery int
	// Obs, when non-nil, receives per-phase spans (Morton sort, tree
	// build, group walk, force evaluation) and traversal counters for
	// every force calculation. Walk workers record concurrently.
	Obs *obs.Observer
}

// The treecode's two tuning defaults, named here once: every front-end
// (library Config, CLI flags, the job server's wire decoder) refers to
// these rather than restating the numbers.
const (
	// DefaultTheta is the common opening parameter of the era, our
	// stand-in for the paper's "accuracy parameter".
	DefaultTheta = 0.75
	// DefaultNcrit is the paper's §3 optimum n_g on DS10 + GRAPE-5.
	DefaultNcrit = 2000
)

// activeRebuildFrac is the block-timestep rebuild policy
// (ComputeForcesActive): a substep whose active fraction reaches it
// triggers a full Morton sort and rebuild, below it the cached tree is
// centre-of-mass refreshed. The policy is a pure function of the active
// fraction and tree validity, which is what keeps resumed block runs on
// the uninterrupted run's exact rebuild schedule.
const activeRebuildFrac = 0.5

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = DefaultTheta
	}
	if o.Ncrit <= 0 {
		o.Ncrit = DefaultNcrit
	}
	if o.LeafCap <= 0 {
		o.LeafCap = 8
	}
	if o.G == 0 {
		o.G = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports the work done by one force calculation. Its fields are
// the quantities the paper's evaluation section is built from.
type Stats struct {
	// N is the particle count.
	N int
	// Groups is the number of particle groups (modified algorithm) or N
	// (original algorithm).
	Groups int
	// Interactions is the total number of pairwise interactions
	// evaluated: Σ_groups n_i × n_j. The paper's headline counts
	// 2.90e13 of these over the full run.
	Interactions int64
	// ListSum is Σ_groups n_j (total interaction-list entries built).
	ListSum int64
	// CellTerms and ParticleTerms split ListSum by list-entry type.
	CellTerms, ParticleTerms int64
	// MinList and MaxList are the extreme list lengths.
	MinList, MaxList int
	// NodesVisited counts tree nodes touched during traversal, the
	// host's walk work measure.
	NodesVisited int64
	// Active is the number of force-evaluated field particles: N for a
	// full-set call, the closing-set size for ComputeForcesActive.
	Active int64
	// BuildTime, WalkTime and ComputeTime are measured wall-clock
	// durations of the tree build, the traversal (list construction)
	// and the force evaluation. With Workers > 1, WalkTime and
	// ComputeTime are summed across workers (CPU time, not elapsed).
	BuildTime, WalkTime, ComputeTime time.Duration
}

// addList records one interaction list of nj entries shared by ni field
// particles. MinList < 0 means "no list yet".
func (s *Stats) addList(ni, nj int) {
	s.Interactions += int64(ni) * int64(nj)
	s.ListSum += int64(nj)
	if nj > s.MaxList {
		s.MaxList = nj
	}
	if s.MinList < 0 || nj < s.MinList {
		s.MinList = nj
	}
}

// merge folds one worker's traversal counters and summed times into s.
func (s *Stats) merge(w *Stats) {
	s.Interactions += w.Interactions
	s.ListSum += w.ListSum
	s.CellTerms += w.CellTerms
	s.ParticleTerms += w.ParticleTerms
	s.NodesVisited += w.NodesVisited
	s.Active += w.Active
	s.WalkTime += w.WalkTime
	s.ComputeTime += w.ComputeTime
	if w.MaxList > s.MaxList {
		s.MaxList = w.MaxList
	}
	if w.MinList >= 0 && (s.MinList < 0 || w.MinList < s.MinList) {
		s.MinList = w.MinList
	}
}

// AvgList returns the mean interaction-list length per particle,
// Interactions / N — the paper quotes 13,431 for the headline run.
func (s *Stats) AvgList() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Interactions) / float64(s.N)
}

// Treecode runs tree-based force calculations over a particle system.
// It owns the reusable step scratch — the octree Builder's arenas, the
// per-worker traversal buffers and the cached pprof label contexts —
// so that steady-state ComputeForces calls are allocation-free apart
// from the Stats and Tree headers. A Treecode must not be shared by
// concurrent callers.
type Treecode struct {
	Opt    Options
	Engine Engine

	// Tree is the most recently built octree (valid after a Compute*
	// call; reused by callers needing group geometry). Trees from
	// ComputeForces borrow the internal Builder's arena and are
	// overwritten by the next full rebuild.
	Tree *octree.Tree

	// sinceBuild counts ComputeForces calls since the last full
	// rebuild, for the RebuildEvery reuse policy.
	sinceBuild int

	// builder is the reused tree constructor; recreated only when the
	// options it bakes in change.
	builder            *octree.Builder
	bLeafCap, bWorkers int
	bObs               *obs.Observer

	// bufs are per-worker traversal buffers; labelCtxs cache the pprof
	// label sets the walk workers run under (building them per call
	// allocates). Both grow to the high-water worker count.
	bufs      []*listBuf
	labelCtxs []context.Context

	// groupCursor dispatches group indices to walk workers; statsMu
	// guards the per-call stats aggregation.
	groupCursor atomic.Int64
	statsMu     sync.Mutex
	wg          sync.WaitGroup
}

// ensureWorkerScratch grows the per-worker buffers and cached pprof
// label contexts to cover worker indices [0, workers).
func (tc *Treecode) ensureWorkerScratch(workers int) {
	for len(tc.bufs) < workers {
		w := len(tc.bufs)
		tc.bufs = append(tc.bufs, &listBuf{})
		tc.labelCtxs = append(tc.labelCtxs, pprof.WithLabels(context.Background(),
			pprof.Labels("treecode", "group-walk", "worker", strconv.Itoa(w))))
	}
}

// New returns a treecode with the given options and engine. A nil
// engine defaults to the float64 host engine.
func New(opt Options, engine Engine) *Treecode {
	o := opt.withDefaults()
	if engine == nil {
		engine = &HostEngine{G: o.G, Eps: o.Eps}
	}
	return &Treecode{Opt: o, Engine: engine}
}

// listBuf is per-worker traversal scratch space: the walk stack (node
// index plus the accept verdict computed at push time), the SoA j-list
// under construction, and the fixed-width MAC gather lanes. All of it
// is owner-allocated and reused across groups and steps (the alloc
// gate pins zero steady-state growth).
type listBuf struct {
	stack []int32
	// flags parallels stack: the MAC verdict for each pushed node,
	// batch-evaluated over its siblings at expansion time.
	flags []bool
	// J is the group's interaction list in kernel layout.
	J hostk.JList
	// macX..macOK are the MACWidth gather lanes for one batched accept
	// call (one octree fan-out). Stale upper lanes are evaluated and
	// discarded.
	macX, macY, macZ, macS [hostk.MACWidth]float64
	macIdx                 [hostk.MACWidth]int32
	macOK                  [hostk.MACWidth]bool
	// seg is the active path's gather segment, reused by every
	// partially-active group this worker dispatches and grown by
	// append's rule.
	seg gatherSeg
}

// gatherSeg holds one partially-active group's gathered i-lanes: the
// global indices of its active members, their positions, and the
// Acc/Pot accumulators the engine writes. Scattered back to the system
// arrays as soon as Accumulate returns.
type gatherSeg struct {
	idx []int32
	pos []vec.V3
	acc []vec.V3
	pot []float64
}

// gather fills seg with group g's members marked in active, with zeroed
// accumulators.
func (seg *gatherSeg) gather(s *nbody.System, g octree.Group, active []bool) {
	seg.idx, seg.pos, seg.acc, seg.pot = seg.idx[:0], seg.pos[:0], seg.acc[:0], seg.pot[:0]
	for i := g.Start; i < g.Start+g.Count; i++ {
		if active[s.ID[i]] {
			seg.idx = append(seg.idx, i)
			seg.pos = append(seg.pos, s.Pos[i])
			seg.acc = append(seg.acc, vec.Zero)
			seg.pot = append(seg.pot, 0)
		}
	}
}

// scatter writes the segment's results back to the gathered particles.
func (seg *gatherSeg) scatter(s *nbody.System) {
	for k, i := range seg.idx {
		s.Acc[i] = seg.acc[k]
		s.Pot[i] = seg.pot[k]
	}
}

// ComputeForces runs the modified (grouped) tree algorithm: builds the
// tree (reordering s into Morton order), forms groups of at most Ncrit
// particles, builds one shared interaction list per group and feeds
// group members plus list to the engine. Accelerations and potentials
// are written to s.Acc and s.Pot.
func (tc *Treecode) ComputeForces(s *nbody.System) (*Stats, error) {
	return tc.computeForces(s, nil, 0)
}

// ComputeForcesActive computes forces for exactly the particles whose
// ID is marked in activeByID (nActive marks), leaving every other
// particle's Acc/Pot untouched — the block-timestep substep primitive.
// Groups without active members are skipped entirely; partially-active
// groups still build their one shared interaction list but dispatch
// only the active members, gathered into dense lanes and scattered back
// after the engine call. A full mask (nActive ≥ N, or a nil activeByID)
// takes the identical code path as ComputeForces — the degenerate-rung
// bitwise anchor.
func (tc *Treecode) ComputeForcesActive(s *nbody.System, activeByID []bool, nActive int) (*Stats, error) {
	if activeByID == nil || nActive >= s.N() {
		return tc.computeForces(s, nil, 0)
	}
	return tc.computeForces(s, activeByID, nActive)
}

// PrimeTree builds and caches the octree for s without dispatching any
// forces. A resumed block-timestep run calls it so its first substep
// starts from the same cached-tree state the uninterrupted run held
// after its last block boundary: the checkpointed system is already in
// Morton order, the rebuild is deterministic, and the next Refresh then
// reproduces the uninterrupted run bitwise.
func (tc *Treecode) PrimeTree(s *nbody.System) error {
	o := tc.Opt.withDefaults()
	_, err := tc.rebuildTree(s, o)
	return err
}

// rebuildTree runs a full Morton sort + build through the cached
// Builder, recreating the builder only when the options it bakes in
// change, and installs the result as the current tree.
func (tc *Treecode) rebuildTree(s *nbody.System, o Options) (*octree.Tree, error) {
	if tc.builder == nil || tc.bLeafCap != o.LeafCap || tc.bWorkers != o.Workers || tc.bObs != o.Obs {
		tc.builder = octree.NewBuilder(octree.BuilderOptions{
			LeafCap: o.LeafCap,
			Workers: o.Workers,
			Obs:     o.Obs,
		})
		tc.bLeafCap, tc.bWorkers, tc.bObs = o.LeafCap, o.Workers, o.Obs
	}
	tree, err := tc.builder.Build(s)
	if err != nil {
		return nil, err
	}
	tc.Tree = tree
	tc.sinceBuild = 1
	return tree, nil
}

// computeForces is the shared walk driver. active == nil is the
// full-set path; a non-nil active mask (indexed by particle ID, with
// nActive marks) dispatches only marked field particles.
func (tc *Treecode) computeForces(s *nbody.System, active []bool, nActive int) (*Stats, error) {
	o := tc.Opt.withDefaults()
	stats := &Stats{N: s.N(), MinList: -1}

	t0 := time.Now()
	var reuse bool
	if active == nil {
		reuse = o.RebuildEvery > 1 && tc.Tree != nil && tc.Tree.Sys == s &&
			tc.sinceBuild < o.RebuildEvery
	} else {
		// Block substeps drift every particle, so the tree always needs
		// at least a centre-of-mass refresh; a full rebuild only when the
		// active fraction says the Morton order is worth re-earning.
		reuse = tc.Tree != nil && tc.Tree.Sys == s &&
			float64(nActive) < activeRebuildFrac*float64(s.N())
	}
	var tree *octree.Tree
	if reuse {
		tm := o.Obs.Start(obs.PhaseTreeBuild)
		tree = tc.Tree
		tree.Refresh()
		tm.Stop()
		tc.sinceBuild++
	} else {
		var err error
		tree, err = tc.rebuildTree(s, o)
		if err != nil {
			return nil, err
		}
	}
	stats.BuildTime = time.Since(t0)

	// Groups is cached on the tree, so the reuse path re-scans nothing.
	// Acc/Pot zeroing happens inside the walk workers, per group range:
	// the groups tile [0, N) disjointly, so each worker clears exactly
	// the range it is about to accumulate into (for active calls, only
	// the gathered lanes of the members it dispatches).
	groups := tree.Groups(o.Ncrit)
	stats.Groups = len(groups)

	mac := octree.OpenCriterion{Theta: o.Theta, UseBmax: o.UseBmax}
	workers := o.Workers
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		workers = 1
	}
	tc.ensureWorkerScratch(workers)
	tc.groupCursor.Store(0)
	for w := 0; w < workers; w++ {
		tc.wg.Add(1)
		go tc.runWalkWorker(w, s, tree, groups, mac, active, o, stats)
	}
	tc.wg.Wait()
	if be, ok := tc.Engine.(BatchedEngine); ok {
		if err := be.Flush(); err != nil {
			return nil, err
		}
	}
	if stats.MinList < 0 {
		stats.MinList = 0
	}
	o.Obs.Add(obs.CntInteractions, stats.Interactions)
	o.Obs.Add(obs.CntGroups, int64(stats.Groups))
	o.Obs.Add(obs.CntNodesVisited, stats.NodesVisited)
	o.Obs.Add(obs.CntActiveI, stats.Active)
	o.Obs.Add(obs.CntSubsteps, 1)
	return stats, nil
}

// runWalkWorker is the walk goroutine body: it applies worker w's
// cached pprof labels (making walk workers identifiable in CPU and
// goroutine profiles) and runs the group-drain loop with w's persistent
// traversal buffer.
func (tc *Treecode) runWalkWorker(w int, s *nbody.System, tree *octree.Tree,
	groups []octree.Group, mac octree.OpenCriterion, active []bool, o Options, stats *Stats) {
	defer tc.wg.Done()
	pprof.SetGoroutineLabels(tc.labelCtxs[w])
	tc.walkWorker(tc.bufs[w], s, tree, groups, mac, active, o, stats)
}

// walkWorker drains group indices from the shared cursor, zeroing each
// group's Acc/Pot range, building its interaction list and dispatching
// it to the engine; per-worker spans and statistics are folded into
// stats under statsMu at the end.
//
// With a non-nil active mask, groups with no active members are skipped
// outright (their list is never built — the block-timestep walk saving),
// fully-active groups take the identical full path, and partially-active
// groups gather their active members into the worker's gatherSeg so the
// engine sees a dense i-range while inactive members' Acc/Pot stay
// untouched; the segment is scattered back once Accumulate returns.
func (tc *Treecode) walkWorker(buf *listBuf, s *nbody.System, tree *octree.Tree,
	groups []octree.Group, mac octree.OpenCriterion, active []bool, o Options, stats *Stats) {
	local := Stats{MinList: -1}
	var req Request // hoisted: &req must not escape a loop iteration
	for {
		gi := int(tc.groupCursor.Add(1)) - 1
		if gi >= len(groups) {
			break
		}
		g := groups[gi]
		ni := int(g.Count)
		na := ni
		if active != nil {
			na = 0
			for i := g.Start; i < g.Start+g.Count; i++ {
				if active[s.ID[i]] {
					na++
				}
			}
			if na == 0 {
				continue
			}
		}
		tw0 := time.Now()
		partial := na < ni
		if partial {
			buf.seg.gather(s, g, active)
		} else {
			for i := g.Start; i < g.Start+g.Count; i++ {
				s.Acc[i] = vec.Zero
				s.Pot[i] = 0
			}
		}
		visited, cells := tc.buildGroupList(tree, g, mac, buf)
		local.WalkTime += time.Since(tw0)

		nj := buf.J.N
		local.addList(na, nj)
		local.CellTerms += int64(cells)
		local.ParticleTerms += int64(nj - cells)
		local.NodesVisited += visited
		local.Active += int64(na)

		tc0 := time.Now()
		if partial {
			seg := &buf.seg
			req = Request{IPos: seg.pos, J: buf.J, Acc: seg.acc, Pot: seg.pot}
		} else {
			req = Request{
				IPos: s.Pos[g.Start : g.Start+g.Count],
				J:    buf.J,
				Acc:  s.Acc[g.Start : g.Start+g.Count],
				Pot:  s.Pot[g.Start : g.Start+g.Count],
			}
		}
		tc.Engine.Accumulate(&req)
		local.ComputeTime += time.Since(tc0)
		if partial {
			buf.seg.scatter(s)
		}
	}
	o.Obs.AddSeconds(obs.PhaseGroupWalk, local.WalkTime.Seconds())
	o.Obs.AddSeconds(obs.PhaseForceEval, local.ComputeTime.Seconds())
	tc.statsMu.Lock()
	stats.merge(&local)
	tc.statsMu.Unlock()
}

// buildGroupList fills buf.J with the shared interaction list of group
// g: centres of mass of accepted cells plus particles of opened leaves.
// The group's own cell is never accepted (its surface distance to its
// own contents is zero), so group members enter the list as direct
// particles — exactly Barnes' formulation. Returns nodes visited and
// the number of cell (centre-of-mass) entries appended.
//
// The MAC is evaluated in batches: when a node is expanded, all its
// present children are gathered into the buf.mac* lanes and judged by
// one hostk.MACSink.Accept call; each child is pushed with its verdict.
// Children are pushed in octant order and popped LIFO — the identical
// visit order, and therefore the identical j-list emission order, as
// the retired per-node walk, which the pre-SoA trajectory goldens pin.
func (tc *Treecode) buildGroupList(tree *octree.Tree, g octree.Group, mac octree.OpenCriterion, buf *listBuf) (int64, int) {
	buf.stack = buf.stack[:0]
	buf.flags = buf.flags[:0]
	buf.J.Reset()
	gbox := tree.Nodes[g.Node].Box
	sink := hostk.MACSink{
		MinX: gbox.Min.X, MinY: gbox.Min.Y, MinZ: gbox.Min.Z,
		MaxX: gbox.Max.X, MaxY: gbox.Max.Y, MaxZ: gbox.Max.Z,
		Theta2: mac.Theta * mac.Theta,
	}
	// The root has no siblings: its verdict is a batch of one.
	root := &tree.Nodes[0]
	buf.macX[0], buf.macY[0], buf.macZ[0] = root.COM.X, root.COM.Y, root.COM.Z
	buf.macS[0] = root.EffSize(mac.UseBmax)
	sink.Accept(&buf.macX, &buf.macY, &buf.macZ, &buf.macS, &buf.macOK)
	buf.stack = append(buf.stack, 0)
	buf.flags = append(buf.flags, buf.macOK[0])
	var visited int64
	cells := 0
	for len(buf.stack) > 0 {
		top := len(buf.stack) - 1
		idx := buf.stack[top]
		accept := buf.flags[top]
		buf.stack = buf.stack[:top]
		buf.flags = buf.flags[:top]
		n := &tree.Nodes[idx]
		visited++
		if accept {
			buf.J.Append(n.COM.X, n.COM.Y, n.COM.Z, n.Mass)
			cells++
			continue
		}
		if n.Leaf {
			for i := n.Start; i < n.Start+n.Count; i++ {
				p := tree.Sys.Pos[i]
				buf.J.Append(p.X, p.Y, p.Z, tree.Sys.Mass[i])
			}
			continue
		}
		m := 0
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			ch := &tree.Nodes[c]
			buf.macX[m], buf.macY[m], buf.macZ[m] = ch.COM.X, ch.COM.Y, ch.COM.Z
			buf.macS[m] = ch.EffSize(mac.UseBmax)
			buf.macIdx[m] = c
			m++
		}
		sink.Accept(&buf.macX, &buf.macY, &buf.macZ, &buf.macS, &buf.macOK)
		for k := 0; k < m; k++ {
			buf.stack = append(buf.stack, buf.macIdx[k])
			buf.flags = append(buf.flags, buf.macOK[k])
		}
	}
	buf.J.Pad()
	return visited, cells
}

// String summarises the stats in one line.
func (s *Stats) String() string {
	return fmt.Sprintf("N=%d groups=%d interactions=%d avgList=%.1f minList=%d maxList=%d nodes=%d build=%v walk=%v compute=%v",
		s.N, s.Groups, s.Interactions, s.AvgList(), s.MinList, s.MaxList, s.NodesVisited,
		s.BuildTime, s.WalkTime, s.ComputeTime)
}
