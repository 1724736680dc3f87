package g5

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// newConformanceCluster builds a cluster with the scale window and
// softening the other guard tests use.
func newConformanceCluster(t testing.TB, cfg ClusterConfig, eps float64) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.SetEps(eps); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// batchShapes is the conformance workload: batch sizes chosen to hit a
// single under-full pipeline load, exact multiples of the 96 virtual
// pipelines, and ragged tails.
var batchShapes = []struct{ ni, nj int }{
	{1, 50}, {17, 300}, {96, 200}, {97, 400}, {192, 128}, {500, 777},
}

// runBatches pushes the deterministic workload through eng, flushing
// after every batch when stepwise is set (the treecode's cadence is one
// flush per step; stepwise stresses the merge path instead).
func runBatches(t testing.TB, eng core.Engine, seed uint64, stepwise bool) []*core.Request {
	t.Helper()
	r := rng.New(seed)
	var reqs []*core.Request
	for _, s := range batchShapes {
		q := randomRequest(r, s.ni, s.nj)
		eng.Accumulate(q)
		reqs = append(reqs, q)
		if stepwise {
			if be, ok := eng.(core.BatchedEngine); ok {
				if err := be.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if be, ok := eng.(core.BatchedEngine); ok {
		if err := be.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// chunkedEngine cuts every batch into i-ranges of at most chunk field
// points (0 = whole batches) before handing them to eng, the way a
// caller with small groups would submit them.
type chunkedEngine struct {
	eng   *Cluster
	chunk int
}

func (c chunkedEngine) Accumulate(req *core.Request) {
	ni := len(req.IPos)
	step := c.chunk
	if step == 0 {
		step = ni
	}
	for lo := 0; lo < ni; lo += step {
		hi := min(lo+step, ni)
		c.eng.Accumulate(&core.Request{
			IPos: req.IPos[lo:hi], J: req.J,
			Acc: req.Acc[lo:hi], Pot: req.Pot[lo:hi],
		})
	}
}

func (c chunkedEngine) Flush() error { return c.eng.Flush() }

// TestClusterK1BitwiseIdenticalToGuard: a single-shard cluster is the
// bare guarded engine plus placement and a telemetry merge — neither of
// which may perturb a single bit of the forces. Sharding is i-axis only
// (each i-particle's force is one full hardware sum), so this holds
// however the field points are cut into batches; the table submits
// whole batches and pathological i-splits.
func TestClusterK1BitwiseIdenticalToGuard(t *testing.T) {
	refSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
	ref := NewGuardedEngine(refSys, 1.5, GuardPolicy{})
	want := runBatches(t, ref, 21, false)

	for _, chunk := range []int{0, 1, 7, 96, 1000} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			cl := newConformanceCluster(t, ClusterConfig{
				Shards: 1, Board: DefaultConfig(), G: 1.5,
			}, 0.05)
			got := runBatches(t, chunkedEngine{cl, chunk}, 21, false)
			for b := range want {
				for i := range want[b].Acc {
					if got[b].Acc[i] != want[b].Acc[i] || got[b].Pot[i] != want[b].Pot[i] {
						t.Fatalf("batch %d i=%d: cluster %v/%v != engine %v/%v",
							b, i, got[b].Acc[i], got[b].Pot[i], want[b].Acc[i], want[b].Pot[i])
					}
				}
			}
			rec := cl.Recovery()
			if rec.Checks == 0 || rec.Retries != 0 || rec.FallbackBatches != 0 {
				t.Errorf("healthy K=1 cluster recovery: %+v", rec)
			}
		})
	}
}

// TestClusterShardsAgreeWithK1: K ∈ {2,4,8} must agree with K=1 to
// ≤1e-12 after deterministic reduction ordering. The i-axis sharding
// design makes the reduction trivial (each force is one hardware sum on
// one shard), so the agreement is in fact exact; the tolerance in the
// assertion documents the contract the treecode relies on, and the
// exactness is pinned separately so a future cross-shard reduction
// cannot sneak in silently.
func TestClusterShardsAgreeWithK1(t *testing.T) {
	base := newConformanceCluster(t, ClusterConfig{
		Shards: 1, Board: DefaultConfig(), G: 1,
	}, 0.05)
	want := runBatches(t, base, 33, true)

	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			cl := newConformanceCluster(t, ClusterConfig{
				Shards: k, Board: DefaultConfig(), G: 1,
			}, 0.05)
			got := runBatches(t, cl, 33, true)
			for b := range want {
				for i := range want[b].Acc {
					d := got[b].Acc[i].Sub(want[b].Acc[i])
					if math.Abs(d.X) > 1e-12 || math.Abs(d.Y) > 1e-12 || math.Abs(d.Z) > 1e-12 ||
						math.Abs(got[b].Pot[i]-want[b].Pot[i]) > 1e-12 {
						t.Fatalf("batch %d i=%d: K=%d drifted beyond 1e-12: %v vs %v",
							b, i, k, got[b].Acc[i], want[b].Acc[i])
					}
					if got[b].Acc[i] != want[b].Acc[i] || got[b].Pot[i] != want[b].Pot[i] {
						t.Fatalf("batch %d i=%d: K=%d not bitwise identical (reduction order changed?)",
							b, i, k)
					}
				}
			}
			// Conservation: every pairwise interaction ran on exactly
			// one shard.
			var total, wantTotal int64
			for _, n := range cl.ShardInteractions() {
				total += n
			}
			for _, s := range batchShapes {
				wantTotal += int64(s.ni) * int64(s.nj)
			}
			if total != wantTotal {
				t.Errorf("shard interactions sum to %d, submitted %d", total, wantTotal)
			}
		})
	}
}

// TestClusterConcurrentAccumulate drives a K=4 cluster from several
// producer goroutines at once — the treecode's walk-worker pattern —
// and checks every batch against the bare engine. Run under -race this
// is the data-race conformance check for placement and the shards'
// concurrent callers.
func TestClusterConcurrentAccumulate(t *testing.T) {
	refSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
	ref := NewEngine(refSys, 1)
	cl := newConformanceCluster(t, ClusterConfig{
		Shards: 4, Board: DefaultConfig(), G: 1,
	}, 0.05)

	const producers, perProducer = 4, 6
	reqs := make([][]*core.Request, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		r := rng.New(100 + uint64(p))
		for b := 0; b < perProducer; b++ {
			reqs[p] = append(reqs[p], randomRequest(r, 30+7*p+b, 150+10*b))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range reqs[p] {
				cl.Accumulate(q)
			}
		}()
	}
	wg.Wait()
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		for b, q := range reqs[p] {
			want := cloneRequest(q)
			ref.Accumulate(want)
			for i := range want.Acc {
				if q.Acc[i] != want.Acc[i] || q.Pot[i] != want.Pot[i] {
					t.Fatalf("producer %d batch %d i=%d: concurrent cluster diverged", p, b, i)
				}
			}
		}
	}
}

// TestClusterFlushSurfacesShardPanic: the bare engines surface host
// programming bugs (here: Compute before SetScale) by panicking; the
// cluster recovers the panic inside Accumulate and returns it as the
// Flush error, so a walk worker's failed batch ends the force call
// instead of the process — and must not wedge the cluster.
func TestClusterFlushSurfacesShardPanic(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Shards: 2, Board: DefaultConfig(), G: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetEps(0.05); err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	q := randomRequest(r, 10, 50) // no SetScale yet: the driver rejects Compute
	cl.Accumulate(q)
	if err := cl.Flush(); err == nil {
		t.Fatal("compute-before-SetScale did not surface an error at Flush")
	}
	// The failure is consumed: after fixing the scale the cluster serves.
	if err := cl.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	q2 := randomRequest(r, 10, 50)
	cl.Accumulate(q2)
	if err := cl.Flush(); err != nil {
		t.Fatalf("cluster did not recover after surfaced error: %v", err)
	}
}

// TestClusterRefusesUnguardedShards: only a one-shard cluster may turn
// the guard off.
func TestClusterRefusesUnguardedShards(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Shards: 2, Board: DefaultConfig(), Unguarded: true}); err == nil {
		t.Fatal("NewCluster built an unguarded 2-shard cluster")
	}
}

// FuzzClusterShard fuzzes the sharding invariants: arbitrary batch
// shapes, shard counts and transient fault injection
// must never drop or double-count a force, and the per-shard recovery
// counters must sum to the cluster totals.
func FuzzClusterShard(f *testing.F) {
	f.Add(uint64(1), uint16(20), uint16(300), uint8(2), uint8(0))
	f.Add(uint64(2), uint16(97), uint16(50), uint8(3), uint8(1))
	f.Add(uint64(3), uint16(500), uint16(900), uint8(8), uint8(2))
	f.Add(uint64(4), uint16(1), uint16(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, niRaw, njRaw uint16, shardsRaw, faultKind uint8) {
		ni := 1 + int(niRaw)%600
		nj := 1 + int(njRaw)%900
		shards := 1 + int(shardsRaw)%8

		cfg := DefaultConfig()
		switch faultKind % 4 {
		case 1:
			cfg.Fault = &FaultModel{Seed: seed, BusErrorRate: 0.1}
		case 2:
			cfg.Fault = &FaultModel{Seed: seed, TransientRate: 0.1}
		case 3:
			cfg.Fault = &FaultModel{Seed: seed, BusErrorRate: 0.08, TransientRate: 0.08}
		}

		cl, err := NewCluster(ClusterConfig{
			Shards: shards, Board: cfg, G: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.SetScale(-100, 100); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetEps(0.05); err != nil {
			t.Fatal(err)
		}

		// Fault-free single-engine reference for the same batches.
		refSys := newGuardSystem(t, paper, DefaultConfig(), 0.05)
		ref := NewGuardedEngine(refSys, 1, GuardPolicy{})

		const batches = 3
		r := rng.New(seed)
		var reqs, want []*core.Request
		for b := 0; b < batches; b++ {
			q := randomRequest(r, ni, nj)
			w := cloneRequest(q)
			ref.Accumulate(w)
			cl.Accumulate(q)
			reqs, want = append(reqs, q), append(want, w)
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}

		// Conservation: each pairwise interaction ran on exactly one
		// shard — nothing dropped, nothing double-counted.
		var total int64
		for _, n := range cl.ShardInteractions() {
			total += n
		}
		if wantTotal := int64(batches) * int64(ni) * int64(nj); total != wantTotal {
			t.Fatalf("shard interactions sum to %d, submitted %d", total, wantTotal)
		}

		// Recovery counters sum across shards, and every batch was
		// acceptance-checked exactly once.
		rec := cl.Recovery()
		var sum Recovery
		var executed int64
		for k := 0; k < cl.Shards(); k++ {
			sr := cl.shards[k].eng.Recovery()
			sum.Checks += sr.Checks
			sum.Retries += sr.Retries
			sum.FallbackBatches += sr.FallbackBatches
		}
		for _, n := range cl.ShardBatches() {
			executed += n
		}
		if rec.Checks != sum.Checks || rec.Retries != sum.Retries || rec.FallbackBatches != sum.FallbackBatches {
			t.Fatalf("cluster recovery %+v disagrees with shard sum %+v", rec, sum)
		}
		if rec.Checks != executed {
			t.Fatalf("%d acceptance checks for %d executed batches", rec.Checks, executed)
		}
		fs := cl.FaultStats()
		if int64(fs.BusErrors+fs.Transients) != rec.Retries {
			t.Fatalf("injected %d transient faults but guard retried %d",
				fs.BusErrors+fs.Transients, rec.Retries)
		}

		// Transient faults are retried away bitwise; only an exhausted
		// retry budget (host fallback, float64 arithmetic) may change the
		// result, and then it must still be finite and close.
		exact := rec.FallbackBatches == 0
		for b := range reqs {
			for i := range reqs[b].Acc {
				g, w := reqs[b].Acc[i], want[b].Acc[i]
				if exact {
					if g != w || reqs[b].Pot[i] != want[b].Pot[i] {
						t.Fatalf("batch %d i=%d: faulted cluster diverged: %v vs %v", b, i, g, w)
					}
					continue
				}
				if math.IsNaN(g.X) || math.IsInf(g.X, 0) ||
					math.IsNaN(g.Y) || math.IsInf(g.Y, 0) ||
					math.IsNaN(g.Z) || math.IsInf(g.Z, 0) {
					t.Fatalf("batch %d i=%d: non-finite force %v after fallback", b, i, g)
				}
				// Host fallback is float64: agreement to the emulator's
				// pairwise error level, not bitwise.
				if rel := g.Sub(w).Norm() / (w.Norm() + 1e-30); rel > 0.05 {
					t.Fatalf("batch %d i=%d: fallback force off by %.3g relative", b, i, rel)
				}
			}
		}
	})
}
