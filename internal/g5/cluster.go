package g5

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// ClusterConfig configures a sharded multi-board GRAPE installation:
// K independent board systems driven from one host, the PC-GRAPE
// scaling axis (Fukushige & Makino) grafted onto the paper's 2-board
// machine.
type ClusterConfig struct {
	// Shards is the number of independent System/GuardedEngine pairs
	// (default 1). Each shard models one board installation with its
	// own bus, particle memory and fault stream.
	Shards int
	// Board is the per-shard hardware configuration (validated by
	// NewSystem; use DefaultConfig for the paper's machine).
	Board Config
	// G is the gravitational constant applied on readback (0 → 1).
	G float64
	// Guard tunes each shard's fault-tolerant offload path; every shard
	// is guarded — a cluster without acceptance checks would silently
	// blend corrupt and clean shards.
	Guard GuardPolicy
}

// clusterShard is one board system plus its guarded driver and private
// telemetry sink. The load tallies are guarded by Cluster.mu.
type clusterShard struct {
	sys *System
	eng *GuardedEngine
	ob  *obs.Observer

	placed                int64 // pair work placed since the last Flush
	interactions, batches int64 // whole-life load, for the balance tests
}

// Cluster spreads group force batches across K guarded boards. Each
// batch runs synchronously in the caller's goroutine, on the shard with
// the least pair work placed since the last Flush (lowest index on
// ties): concurrent walk workers land on different shards, or overlap
// their arithmetic inside one shard's guard, exactly as they do on a
// single guarded system. At one caller placement depends only on the
// batch sequence.
//
// Sharding is along the i-axis at batch granularity: every field
// particle's force is evaluated in full — whole j-list, one hardware
// call — on exactly one shard. A batch is never split: every hardware
// call streams the batch's whole j-list, so splitting it across shards
// would replicate the dominant j transfer onto every board it touched.
// There is no floating-point reduction across shards, so shard count
// and placement cannot perturb results: a Cluster is bitwise-identical
// to a single GuardedEngine fed the same batches (the conformance suite
// pins this).
//
// Accumulate is safe for concurrent use and commits its results before
// it returns. SetScale, SetEps, SetObserver, Flush and Close must not
// race with Accumulate — call them at batch boundaries, as Simulation
// and the treecode do.
type Cluster struct {
	shards []*clusterShard
	ob     *obs.Observer // merge target for Flush

	mu  sync.Mutex
	err error // first shard failure since the last Flush

	critSec float64 // accumulated critical-path hardware seconds
}

var _ core.Engine = (*Cluster)(nil)
var _ core.BatchedEngine = (*Cluster)(nil)

// NewCluster builds a K-shard cluster. Shard 0 uses the fault model
// exactly as configured (so a K=1 cluster reproduces a bare engine's
// fault stream bit for bit); shards beyond 0 get decorrelated fault
// seeds — independent boards fail independently.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.G == 0 {
		cfg.G = 1
	}
	c := &Cluster{}
	for k := 0; k < cfg.Shards; k++ {
		bcfg := cfg.Board
		if bcfg.Fault != nil && k > 0 {
			f := *bcfg.Fault
			f.Seed += uint64(k) * 0x9e3779b97f4a7c15
			bcfg.Fault = &f
		}
		sys, err := NewSystem(bcfg)
		if err != nil {
			return nil, fmt.Errorf("g5: cluster shard %d: %w", k, err)
		}
		sh := &clusterShard{
			sys: sys,
			eng: NewGuardedEngine(sys, cfg.G, cfg.Guard),
			ob:  obs.NewObserver(),
		}
		sys.SetObserver(sh.ob)
		sh.eng.SetObserver(sh.ob)
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Shards returns the configured shard count K.
func (c *Cluster) Shards() int { return len(c.shards) }

// ShardSystem exposes shard k's hardware for counter access and tests.
// Callers must not Compute on it while the cluster is in use.
func (c *Cluster) ShardSystem(k int) *System { return c.shards[k].sys }

// ShardEngine exposes shard k's guarded driver for recovery inspection.
func (c *Cluster) ShardEngine(k int) *GuardedEngine { return c.shards[k].eng }

// ShardInteractions returns the pairwise interactions placed per shard
// — the load-balance measure the golden tests pin.
func (c *Cluster) ShardInteractions() []int64 {
	return c.tally(func(sh *clusterShard) int64 { return sh.interactions })
}

// ShardBatches returns the batch count placed per shard.
func (c *Cluster) ShardBatches() []int64 {
	return c.tally(func(sh *clusterShard) int64 { return sh.batches })
}

func (c *Cluster) tally(f func(*clusterShard) int64) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.shards))
	for k, sh := range c.shards {
		out[k] = f(sh)
	}
	return out
}

// Steals is always 0: batches are placed, never stolen. It stays for
// the benchmark's g5.cluster_steals metric.
func (c *Cluster) Steals() int64 { return 0 }

// SetScale sets the fixed-point coordinate window on every shard.
func (c *Cluster) SetScale(min, max float64) error {
	for k, sh := range c.shards {
		if err := sh.sys.SetScale(min, max); err != nil {
			return fmt.Errorf("g5: cluster shard %d: %w", k, err)
		}
	}
	return nil
}

// SetEps sets the softening length on every shard.
func (c *Cluster) SetEps(eps float64) error {
	for k, sh := range c.shards {
		if err := sh.sys.SetEps(eps); err != nil {
			return fmt.Errorf("g5: cluster shard %d: %w", k, err)
		}
	}
	return nil
}

// SetObserver attaches the telemetry merge target: at every Flush the
// per-shard telemetry is folded into o (see mergeObs). A nil observer
// detaches.
func (c *Cluster) SetObserver(o *obs.Observer) { c.ob = o }

// Counters returns the summed hardware activity of all shards — the
// cluster's aggregate work, not its critical path.
func (c *Cluster) Counters() Counters {
	var total Counters
	for _, sh := range c.shards {
		total = total.Add(sh.sys.Counters())
	}
	return total
}

// Recovery returns the summed fault-handling counters across shards.
// HostOnly is set only when EVERY shard has abandoned its hardware —
// a cluster with one live board is degraded, not host-only.
func (c *Cluster) Recovery() Recovery {
	var total Recovery
	hostOnly := true
	for _, sh := range c.shards {
		r := sh.eng.Recovery()
		total = total.Add(r)
		hostOnly = hostOnly && r.HostOnly
	}
	total.HostOnly = hostOnly
	return total
}

// FaultStats returns the summed injected-fault counters across shards.
func (c *Cluster) FaultStats() FaultStats {
	var total FaultStats
	for _, sh := range c.shards {
		total = total.Add(sh.sys.FaultStats())
	}
	return total
}

// ActiveBoards returns the number of boards in service across all
// shards.
func (c *Cluster) ActiveBoards() int {
	total := 0
	for _, sh := range c.shards {
		total += sh.sys.ActiveBoards()
	}
	return total
}

// CriticalHWSeconds returns the accumulated critical-path simulated
// hardware time: at each Flush the slowest shard's span is added, so
// this is the wall time K concurrent boards would actually take —
// divide the aggregate Counters().HWSeconds() by this for the measured
// parallel efficiency.
func (c *Cluster) CriticalHWSeconds() float64 { return c.critSec }

// Accumulate implements core.Engine: it places the batch on a shard
// and runs it there before returning. A shard panic (wedged hardware,
// *HardwareError) is recovered and returned by the next Flush, so one
// failed batch ends the force call with an error instead of the process.
func (c *Cluster) Accumulate(req *core.Request) {
	if len(req.IPos) == 0 || req.J.N == 0 {
		return
	}
	k := c.place(int64(len(req.IPos)) * int64(req.J.N))
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = fmt.Errorf("g5: cluster shard %d: %v", k, r)
			}
			c.mu.Unlock()
		}
	}()
	c.shards[k].eng.Accumulate(req)
}

// place picks the shard with the least pair work placed since the last
// Flush (lowest index on ties) and charges work to it.
func (c *Cluster) place(work int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := 0
	for i, sh := range c.shards {
		if sh.placed < c.shards[k].placed {
			k = i
		}
	}
	sh := c.shards[k]
	sh.placed += work
	sh.interactions += work
	sh.batches++
	return k
}

// Flush implements core.BatchedEngine: it folds the per-shard telemetry
// into the attached observer, restarts placement, and returns the first
// shard failure since the previous Flush (clearing it).
func (c *Cluster) Flush() error {
	c.mergeObs()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		sh.placed = 0
	}
	err := c.err
	c.err = nil
	return err
}

// Close is Flush: the cluster holds no goroutines or other resources.
// It is safe to call more than once.
func (c *Cluster) Close() error { return c.Flush() }

// mergeObs folds the interval's per-shard telemetry into the target
// observer, then resets the shard observers. Counters (flops, bytes,
// recoveries, fallbacks) and the guard span are summed — they are real
// aggregate work. The simulated hardware phases (j/i transfer,
// pipeline, readback) are taken from the critical-path shard only: the
// boards run concurrently, so the cluster's t_grape and t_comm are the
// slowest shard's — the quantity the K-board time-balance model
// predicts shrinking as 1/K. The caller's own timer around Accumulate
// (the treecode's force_eval) already holds the host-side time.
func (c *Cluster) mergeObs() {
	target := c.ob
	crit, critSpan := 0, -1.0
	for k, sh := range c.shards {
		span := sh.ob.Seconds(obs.PhaseJTransfer) + sh.ob.Seconds(obs.PhaseITransfer) +
			sh.ob.Seconds(obs.PhasePipeline) + sh.ob.Seconds(obs.PhaseReadback)
		if span > critSpan {
			crit, critSpan = k, span
		}
	}
	if critSpan > 0 {
		c.critSec += critSpan
	}
	for k, sh := range c.shards {
		target.AddSeconds(obs.PhaseGuard, sh.ob.Seconds(obs.PhaseGuard))
		if k == crit {
			target.AddSeconds(obs.PhaseJTransfer, sh.ob.Seconds(obs.PhaseJTransfer))
			target.AddSeconds(obs.PhaseITransfer, sh.ob.Seconds(obs.PhaseITransfer))
			target.AddSeconds(obs.PhasePipeline, sh.ob.Seconds(obs.PhasePipeline))
			target.AddSeconds(obs.PhaseReadback, sh.ob.Seconds(obs.PhaseReadback))
		}
		target.Add(obs.CntFlops, sh.ob.Count(obs.CntFlops))
		target.Add(obs.CntBytes, sh.ob.Count(obs.CntBytes))
		target.Add(obs.CntRecoveries, sh.ob.Count(obs.CntRecoveries))
		target.Add(obs.CntFallbacks, sh.ob.Count(obs.CntFallbacks))
		sh.ob.Reset()
	}
}
