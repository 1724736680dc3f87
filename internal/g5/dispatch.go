package g5

import (
	"sync"

	"repro/internal/hostk"
	"repro/internal/vec"
)

// task is one staged force batch: the caller's field points and output
// slices, and the task's own copy of the source list (the Accumulate
// caller reuses its j buffers immediately after submission; the SoA
// layout, padding included, is kept so the shard engine sees exactly the
// caller's request). The acc and pot slices alias the caller's output
// arrays; batches write disjoint ranges, so shards commit results
// without any reduction step.
type task struct {
	ipos []vec.V3
	j    hostk.JList
	acc  []vec.V3
	pot  []float64
}

// freeList recycles the cluster's staged tasks with their j copies. A
// walk stages a whole step's batches ahead of the shards, so a step holds
// as many j-list copies as it has groups. Not a sync.Pool, for the
// guard's reason: the race detector drops pooled items at random (a
// quarter of the copies, 450 kB a step) and TestStepAllocsCluster runs
// under it.
type freeList struct {
	mu   sync.Mutex
	free []*task
}

func (f *freeList) get() *task {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		return t
	}
	return new(task)
}

// put recycles t, dropping its references to the caller's slices first.
func (f *freeList) put(t *task) {
	t.ipos, t.acc, t.pot = nil, nil, nil
	f.mu.Lock()
	f.free = append(f.free, t)
	f.mu.Unlock()
}

// dispatcher is the cluster's work-stealing dispatch queue: one FIFO
// lane per shard, filled round-robin. Owners pop from the front of their
// lane (batches stream through a board in submission order, the
// double-buffered SetIP/Run/GetForce cadence); an idle shard steals from
// the back of the longest lane, where the freshest — and least
// prefetch-committed — work sits. The emulated cost of a batch is
// proportional to its interaction count, so balancing by time balances
// hardware load.
//
// Stealing is allowed only from a BUSY victim: work queued behind a
// board that is currently draining a batch is genuinely delayed, while
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
	busy   []bool // shard k's worker is executing a batch
	steals int64
	closed bool
}

func newDispatcher(k int) *dispatcher {
	d := &dispatcher{lanes: make([][]*task, k), busy: make([]bool, k)}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// submit appends t to lane k and wakes the workers. A broadcast (not a
// single signal) is required: a thief may only take from a busy owner,
// so when lane k's owner is idle it must be woken itself — a lone Signal
// could wake another idle worker, which may not steal the task.
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
