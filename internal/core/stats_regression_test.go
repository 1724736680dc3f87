// Package core_test: external so the regression suite can also drive
// the treecode through the g5 cluster engine (g5 imports core; an
// in-package test would cycle).
package core_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/rng"
)

// TestTraversalStatsRegression pins the traversal statistics of the
// modified algorithm for fixed (N, theta, n_g) against golden values
// recorded from the current implementation, with tolerance bands wide
// enough to survive benign refactors but tight enough to catch a
// changed opening criterion, broken grouping, or a list-length
// regression. The shape matches the paper's §3 table: average list
// length grows with n_g (shared lists get longer as groups widen)
// while host tree work shrinks.
func TestTraversalStatsRegression(t *testing.T) {
	cases := []struct {
		name         string
		n, ng        int
		theta        float64
		groups       int
		interactions int64
		avgList      float64
	}{
		// Golden values: Plummer seed 1, eps 0.02, LeafCap default 8.
		{"N1024-ng64-th0.6", 1024, 64, 0.6, 84, 594736, 580.80},
		{"N4096-ng500-th0.75", 4096, 500, 0.75, 82, 4350858, 1062.22},
		{"N4096-ng2000-th0.75", 4096, 2000, 0.75, 8, 7729413, 1887.06},
		{"N8192-ng2000-th0.75", 8192, 2000, 0.75, 22, 23837846, 2909.89},
	}

	const relTol = 0.05 // 5% band on interaction totals and list lengths

	var prevAvg float64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := nbody.Plummer(tc.n, 1, 1, 1, rng.New(1))
			tree := core.New(core.Options{Theta: tc.theta, Ncrit: tc.ng, G: 1, Eps: 0.02},
				&core.HostEngine{G: 1, Eps: 0.02})
			st, err := tree.ComputeForces(s)
			if err != nil {
				t.Fatal(err)
			}
			if st.Groups != tc.groups {
				t.Errorf("groups = %d, golden %d", st.Groups, tc.groups)
			}
			if rel := math.Abs(float64(st.Interactions-tc.interactions)) / float64(tc.interactions); rel > relTol {
				t.Errorf("interactions = %d, golden %d (off by %.1f%%)",
					st.Interactions, tc.interactions, 100*rel)
			}
			if rel := math.Abs(st.AvgList()-tc.avgList) / tc.avgList; rel > relTol {
				t.Errorf("avg list = %.2f, golden %.2f (off by %.1f%%)",
					st.AvgList(), tc.avgList, 100*rel)
			}
			// The modified algorithm's defining trade-off (§3): a group
			// never interacts with fewer sources than it has members, and
			// the average list must stay far below N (else the tree is
			// doing direct summation).
			if st.AvgList() < float64(st.N)/float64(tc.groups)/4 {
				t.Errorf("avg list %.1f implausibly short for %d groups", st.AvgList(), tc.groups)
			}
			if st.AvgList() > 3*float64(tc.n)/4 {
				t.Errorf("avg list %.1f approaching direct summation (N=%d)", st.AvgList(), tc.n)
			}
		})
	}

	// Paper §3: at fixed N and theta, widening n_g lengthens the shared
	// interaction lists. Check across the two N=4096 cases.
	for _, tc := range cases[1:3] {
		s := nbody.Plummer(tc.n, 1, 1, 1, rng.New(1))
		tree := core.New(core.Options{Theta: tc.theta, Ncrit: tc.ng, G: 1, Eps: 0.02},
			&core.HostEngine{G: 1, Eps: 0.02})
		st, err := tree.ComputeForces(s)
		if err != nil {
			t.Fatal(err)
		}
		if st.AvgList() <= prevAvg {
			t.Errorf("avg list not increasing with n_g: %.1f after %.1f", st.AvgList(), prevAvg)
		}
		prevAvg = st.AvgList()
	}
}

// TestClusterShardBalanceRegression drives the sharded offload at the
// paper-scale operating point (N=4096 Plummer, n_g=2000, theta=0.75 —
// the 8-group golden case above) with one walk worker. Placement (least
// pair work since the last Flush, lowest shard on ties) then depends
// only on the batch sequence, so the per-shard interaction and batch
// counts are goldens; they also conserve the traversal's totals.
func TestClusterShardBalanceRegression(t *testing.T) {
	const (
		n, ng  = 4096, 2000
		theta  = 0.75
		groups = 8
		golden = int64(7729413)
	)
	for _, tc := range []struct {
		shards       int
		interactions []int64
		batches      []int64
	}{
		{2, []int64{3778061, 3951352}, []int64{4, 4}},
		{4, []int64{1590972, 1682237, 1923264, 2532940}, []int64{1, 3, 2, 2}},
	} {
		cl, err := g5.NewCluster(g5.ClusterConfig{Shards: tc.shards, Board: g5.DefaultConfig(), G: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.SetScale(-40, 40); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetEps(0.02); err != nil {
			t.Fatal(err)
		}

		s := nbody.Plummer(n, 1, 1, 1, rng.New(1))
		tree := core.New(core.Options{Theta: theta, Ncrit: ng, G: 1, Eps: 0.02, Workers: 1}, cl)
		st, err := tree.ComputeForces(s)
		if err != nil {
			t.Fatal(err)
		}
		if st.Groups != groups || st.Interactions != golden {
			t.Fatalf("traversal drifted from golden: groups=%d interactions=%d", st.Groups, st.Interactions)
		}
		loads, batches := cl.ShardInteractions(), cl.ShardBatches()
		if !slices.Equal(loads, tc.interactions) || !slices.Equal(batches, tc.batches) {
			t.Errorf("K=%d: shard interactions %#v batches %#v, golden %#v %#v",
				tc.shards, loads, batches, tc.interactions, tc.batches)
		}
		var sum, nb int64
		for k := range loads {
			sum += loads[k]
			nb += batches[k]
		}
		if sum != st.Interactions || nb != int64(st.Groups) {
			t.Errorf("K=%d: shards ran %d interactions in %d batches, traversal emitted %d in %d groups",
				tc.shards, sum, nb, st.Interactions, st.Groups)
		}
	}
}
