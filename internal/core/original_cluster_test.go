package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

// TestOriginalOnClusterMatchesGuard: the per-particle driver waits on
// the BatchedEngine Flush barrier, so the original algorithm on a K=2
// cluster returns fully committed forces — bit for bit those of the
// synchronous guarded engine — and an asynchronous shard failure comes
// back as the call's error instead of being lost with the batches.
func TestOriginalOnClusterMatchesGuard(t *testing.T) {
	const eps = 0.02
	model := nbody.Plummer(400, 1, 1, 1, rng.New(9))
	opt := core.Options{Theta: 0.75, G: 1, Eps: eps}
	lo, hi := -100.0, 100.0

	hw, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.SetScale(lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := hw.SetEps(eps); err != nil {
		t.Fatal(err)
	}
	ref := model.Clone()
	stRef, err := core.New(opt, g5.NewGuardedEngine(hw, 1, g5.GuardPolicy{})).ComputeForcesOriginal(ref)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := g5.NewCluster(g5.ClusterConfig{Shards: 2, Board: g5.DefaultConfig(), G: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetEps(eps); err != nil {
		t.Fatal(err)
	}
	tc := core.New(opt, cl)

	// No scale window yet: every shard rejects its batches on a worker
	// goroutine, and only Flush can report it.
	if _, err := tc.ComputeForcesOriginal(model.Clone()); err == nil {
		t.Fatal("shard failure did not surface from ComputeForcesOriginal")
	}

	if err := cl.SetScale(lo, hi); err != nil {
		t.Fatal(err)
	}
	s := model.Clone()
	st, err := tc.ComputeForcesOriginal(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Interactions != stRef.Interactions {
		t.Errorf("interactions %d, guarded engine %d", st.Interactions, stRef.Interactions)
	}
	accByID := make(map[int64]vec.V3, ref.N())
	potByID := make(map[int64]float64, ref.N())
	for i := range ref.Pos {
		accByID[ref.ID[i]] = ref.Acc[i]
		potByID[ref.ID[i]] = ref.Pot[i]
	}
	for i := range s.Pos {
		id := s.ID[i]
		if s.Acc[i] != accByID[id] || s.Pot[i] != potByID[id] {
			t.Fatalf("ID %d: cluster %v/%v, guarded %v/%v", id, s.Acc[i], s.Pot[i], accByID[id], potByID[id])
		}
	}
}
