package g5

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// telemetry sink. Per-shard load tallies feed the balance tests and the
// K-board time-balance model.
type clusterShard struct {
	sys *System
	eng *GuardedEngine
	ob  *obs.Observer

	interactions atomic.Int64
	batches      atomic.Int64
}

// Cluster shards group force batches across K boards with asynchronous
// double-buffering: Accumulate only STAGES work — it snapshots the
// caller's j-list and queues the batch on the dispatcher — and returns
// immediately, so the treecode's walk workers stream the next group's
// list while shard workers drain earlier batches through
// SetIP/Run/GetForce. Each per-shard lane holds the in-flight batch
// plus the queued next one, which is exactly the double-buffer of the
// real host library's asynchronous API. Flush is the step barrier: it
// blocks until every staged batch has committed.
//
// Sharding is along the i-axis at batch granularity: every field
// particle's force is evaluated in full — whole j-list, one hardware
// call — on exactly one shard. A batch is never split: every hardware
// call streams the batch's whole j-list, so splitting it across shards
// would replicate the dominant j transfer onto every board it touched,
// while whole batches keep each board's bus traffic a single engine's;
// the treecode emits many more batches than shards at any sane n_g, and
// the work-stealing balance operates on them. There is no
// floating-point reduction across shards, so shard count and dispatch
// order cannot perturb results: a Cluster is bitwise-identical to a
// single GuardedEngine fed the same batches (the conformance suite pins
// this).
//
// Output slices handed to Accumulate must stay valid and disjoint
// across batches until Flush returns (the treecode's per-group
// subslices of the system arrays satisfy this); j buffers may be
// reused by the caller as soon as Accumulate returns.
//
// Accumulate is safe for concurrent use. SetScale, SetEps, Flush and
// Close must not race with Accumulate — call them at batch boundaries,
// as Simulation and the treecode do.
type Cluster struct {
	cfg    ClusterConfig
	shards []*clusterShard
	disp   *dispatcher
	free   freeList // staged tasks not in flight

	tasks   sync.WaitGroup // staged batches not yet committed
	workers sync.WaitGroup // running shard goroutines
	rr      atomic.Int64   // round-robin lane cursor

	ob atomic.Pointer[obs.Observer] // merge target for Flush

	errMu sync.Mutex
	err   error // first asynchronous failure since the last Flush

	critSec float64 // accumulated critical-path hardware seconds
	closed  atomic.Bool
}

var _ core.Engine = (*Cluster)(nil)
var _ core.BatchedEngine = (*Cluster)(nil)

// NewCluster builds a K-shard cluster and starts one worker goroutine
// per shard. Shard 0 uses the fault model exactly as configured (so a
// K=1 cluster reproduces a bare engine's fault stream bit for bit);
// shards beyond 0 get decorrelated fault seeds — independent boards
// fail independently.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.G == 0 {
		cfg.G = 1
	}
	c := &Cluster{cfg: cfg, disp: newDispatcher(cfg.Shards)}
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
	for k := range c.shards {
		c.workers.Add(1)
		go c.worker(k)
	}
	return c, nil
}

// Shards returns the configured shard count K.
func (c *Cluster) Shards() int { return len(c.shards) }

// Config returns the per-shard board configuration.
func (c *Cluster) Config() Config { return c.cfg.Board }

// ShardSystem exposes shard k's hardware for counter access and tests.
// Callers must not Compute on it while the cluster is in use.
func (c *Cluster) ShardSystem(k int) *System { return c.shards[k].sys }

// ShardEngine exposes shard k's guarded driver for recovery inspection.
func (c *Cluster) ShardEngine(k int) *GuardedEngine { return c.shards[k].eng }

// ShardInteractions returns the pairwise interactions executed per
// shard — the load-balance measure the golden tests pin.
func (c *Cluster) ShardInteractions() []int64 {
	out := make([]int64, len(c.shards))
	for k, sh := range c.shards {
		out[k] = sh.interactions.Load()
	}
	return out
}

// ShardBatches returns the batch count executed per shard.
func (c *Cluster) ShardBatches() []int64 {
	out := make([]int64, len(c.shards))
	for k, sh := range c.shards {
		out[k] = sh.batches.Load()
	}
	return out
}

// Steals returns how many batches ran on a shard other than their
// round-robin lane.
func (c *Cluster) Steals() int64 { return c.disp.Steals() }

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
// per-shard phase spans are folded into o (see mergeObs). A nil
// observer detaches.
func (c *Cluster) SetObserver(o *obs.Observer) { c.ob.Store(o) }

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

// Accumulate implements core.Engine by staging the batch: the j-list is
// copied (callers reuse their buffers immediately) and the batch is
// queued on a round-robin lane. Results land in req.Acc/req.Pot no later
// than the next Flush.
func (c *Cluster) Accumulate(req *core.Request) {
	if len(req.IPos) == 0 || req.J.N == 0 {
		return
	}
	t := c.free.get()
	t.j.CopyFrom(&req.J)
	t.ipos, t.acc, t.pot = req.IPos, req.Acc, req.Pot
	c.tasks.Add(1)
	lane := int(c.rr.Add(1)-1) % len(c.shards)
	c.disp.submit(lane, t)
}

// Flush implements core.BatchedEngine: it blocks until every staged
// batch has committed its results, folds the per-shard telemetry into
// the attached observer, and returns the first asynchronous failure
// since the previous Flush (clearing it).
func (c *Cluster) Flush() error {
	c.tasks.Wait()
	c.mergeObs()
	c.errMu.Lock()
	err := c.err
	c.err = nil
	c.errMu.Unlock()
	return err
}

// Close flushes outstanding work and stops the shard workers. The
// cluster must not be used after Close.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.Flush()
	c.disp.close()
	c.workers.Wait()
	return err
}

// mergeObs folds the drained interval's per-shard telemetry into the
// target observer, then resets the shard observers. Counters (flops,
// bytes, recoveries, fallbacks) and the host-side force-evaluation and
// guard spans are summed — they are real aggregate work, and shard time
// follows the walk phase's Σ-worker-time convention. The simulated
// hardware phases (j/i transfer, pipeline, readback) are taken from
// the critical-path shard only: the boards run concurrently, so the
// cluster's t_grape and t_comm are the slowest shard's — the quantity
// the K-board time-balance model predicts shrinking as 1/K.
func (c *Cluster) mergeObs() {
	target := c.ob.Load()
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
		target.AddSeconds(obs.PhaseForceEval, sh.ob.Seconds(obs.PhaseForceEval))
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

// worker is shard k's drain loop: pop (or steal) the next batch, run
// it, repeat until the dispatcher closes.
func (c *Cluster) worker(k int) {
	defer c.workers.Done()
	for {
		t := c.disp.next(k)
		if t == nil {
			return
		}
		c.run(k, t)
	}
}

// run executes one batch on shard k, timing it as the shard's force
// evaluation. A shard panic (wedged hardware, *HardwareError) must not
// kill the process from a worker goroutine: it is captured as the
// cluster's asynchronous error and surfaced at Flush, the same contract
// the synchronous engines express by panicking in the caller's frame.
func (c *Cluster) run(k int, t *task) {
	defer c.tasks.Done()
	defer c.free.put(t)
	defer func() {
		if r := recover(); r != nil {
			c.errMu.Lock()
			if c.err == nil {
				c.err = fmt.Errorf("g5: cluster shard %d: %v", k, r)
			}
			c.errMu.Unlock()
		}
	}()
	sh := c.shards[k]
	req := core.Request{IPos: t.ipos, J: t.j, Acc: t.acc, Pot: t.pot}
	tf := sh.ob.Start(obs.PhaseForceEval)
	sh.eng.Accumulate(&req)
	tf.Stop()
	sh.interactions.Add(int64(len(t.ipos)) * int64(t.j.N))
	sh.batches.Add(1)
}
