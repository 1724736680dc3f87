package g5

import (
	"sync"

	"repro/internal/hostk"
	"repro/internal/vec"
)

// DispatchPolicy selects how staged i-chunks are handed to the
// cluster's shards.
type DispatchPolicy int

const (
	// DispatchWorkSteal round-robins chunks across per-shard lanes and
	// lets an idle shard steal queued work from the back of the longest
	// other lane — the default policy. Stealing balances by time: the
	// emulated Compute cost is proportional to the chunk's interaction
	// count, so executed load tracks hardware load.
	DispatchWorkSteal DispatchPolicy = iota
	// DispatchRoundRobin pins every chunk to its round-robin lane (no
	// stealing). Per-board load is then a pure function of submission
	// order, which the balance regression tests pin as golden values.
	DispatchRoundRobin
)

// task is one staged unit of cluster work: a contiguous i-chunk of a
// force batch, referencing the batch's shared staged j-set. The acc and
// pot slices alias the caller's output arrays; disjoint chunks write
// disjoint ranges, so shards commit results without any reduction step
// (the per-i force is a single hardware sum — trivially deterministic
// reduction ordering).
type task struct {
	ipos []vec.V3
	jset *jset
	acc  []vec.V3
	pot  []float64
}

// jset is the staged copy of one batch's source list (the Accumulate
// caller reuses its j buffers immediately after submission). It is
// shared by all the batch's i-chunks and recycled when the last chunk
// drains. The SoA layout (padding included) is preserved so shard
// engines see exactly the caller's request.
type jset struct {
	j    hostk.JList
	refs int32 // accessed atomically via the cluster
}

// freeList recycles the cluster's staging objects. A walk stages a whole
// step's batches ahead of the shards, so a step holds as many j-list
// copies as it has groups. Not a sync.Pool, for the guard's reason: the
// race detector drops pooled items at random (a quarter of the copies,
// 450 kB a step) and TestStepAllocsCluster runs under it.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}

// dispatcher is the cluster's work-stealing dispatch queue: one FIFO
// lane per shard. Owners pop from the front of their lane (batches
// stream through a board in submission order, the double-buffered
// SetIP/Run/GetForce cadence); thieves steal from the back of the
// longest lane, where the freshest — and least prefetch-committed —
// work sits.
//
// Stealing is allowed only from a BUSY victim: work queued behind a
// board that is currently draining a chunk is genuinely delayed, while
// an idle shard's queue is work its own board is about to start — a
// thief grabbing it would serialise two boards' load onto one. The
// distinction matters most on a host with fewer cores than shards,
// where an idle shard's worker goroutine can be runnable but not yet
// scheduled; without the busy check the running worker would drain
// every lane itself and the simulated critical path would collapse to
// the aggregate.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [][]*task
	busy   []bool // shard k's worker is executing a chunk
	steal  bool
	steals int64
	closed bool
}

func newDispatcher(k int, policy DispatchPolicy) *dispatcher {
	d := &dispatcher{
		lanes: make([][]*task, k),
		busy:  make([]bool, k),
		steal: policy == DispatchWorkSteal,
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// submit appends t to lane k and wakes the workers. A broadcast (not a
// single signal) is required: under DispatchRoundRobin only lane k's
// owner may run the task, and a lone Signal could wake a different,
// permanently-idle worker instead.
func (d *dispatcher) submit(k int, t *task) {
	d.mu.Lock()
	d.lanes[k] = append(d.lanes[k], t)
	d.mu.Unlock()
	d.cond.Broadcast()
}

// next blocks until shard k has work and returns it, or returns nil
// once the dispatcher is closed and k has nothing left to run. The
// shard is marked busy while it executes the returned task; a waiting
// or finished shard is idle (and wakes its lane's waiters so a thief
// reconsiders).
func (d *dispatcher) next(k int) *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.busy[k] {
		d.busy[k] = false
		// Becoming idle changes what thieves may take; re-examine.
		d.cond.Broadcast()
	}
	for {
		if lane := d.lanes[k]; len(lane) > 0 {
			t := lane[0]
			// Release the popped slot so drained tasks are collectable.
			lane[0] = nil
			d.lanes[k] = lane[1:]
			d.busy[k] = true
			return t
		}
		if d.steal {
			victim, best := -1, 0
			for i, lane := range d.lanes {
				if i != k && d.busy[i] && len(lane) > best {
					victim, best = i, len(lane)
				}
			}
			if victim >= 0 {
				lane := d.lanes[victim]
				t := lane[len(lane)-1]
				lane[len(lane)-1] = nil
				d.lanes[victim] = lane[:len(lane)-1]
				d.steals++
				d.busy[k] = true
				return t
			}
		}
		if d.closed {
			return nil
		}
		d.cond.Wait()
	}
}

// Steals returns how many tasks ran on a shard other than the one they
// were submitted to.
func (d *dispatcher) Steals() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.steals
}

// close wakes every worker for shutdown; workers drain their remaining
// lanes before exiting.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}
