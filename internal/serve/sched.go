package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/g5"
	"repro/internal/obs"
)

// Budget is the server's admission-control envelope. Everything a job
// could exhaust is bounded here; requests beyond a bound are rejected
// at the door (400 for per-job limits, 429 for queue pressure), never
// silently truncated or dropped.
type Budget struct {
	// MaxParticles and MaxSteps bound a single job's size.
	MaxParticles int
	MaxSteps     int
	// MaxRunning is the number of jobs stepping concurrently.
	MaxRunning int
	// Boards is the board pool shared by all running grape5 jobs; a
	// job leasing k boards blocks until k are free.
	Boards int
	// MaxQueuedPerTenant and MaxQueueTotal bound the admission queues;
	// beyond them submissions get 429 + Retry-After.
	MaxQueuedPerTenant int
	MaxQueueTotal      int
	// RetryAfter is the backoff hint returned with 429 responses.
	RetryAfter time.Duration
	// CkptEvery is the periodic checkpoint cadence in steps for
	// persistent jobs (0 disables periodic checkpoints; drain still
	// checkpoints).
	CkptEvery int
	// TenantWeights maps tenant name to scheduling weight (default 1):
	// with every tenant backlogged, each replenish epoch dispatches a
	// tenant weight-many times.
	TenantWeights map[string]int
}

// withDefaults fills unset budget fields with serviceable defaults.
func (b Budget) withDefaults() Budget {
	if b.MaxParticles <= 0 {
		b.MaxParticles = 100_000
	}
	if b.MaxSteps <= 0 {
		b.MaxSteps = 10_000
	}
	if b.MaxRunning <= 0 {
		b.MaxRunning = 2
	}
	if b.Boards <= 0 {
		b.Boards = 4
	}
	if b.MaxQueuedPerTenant <= 0 {
		b.MaxQueuedPerTenant = 8
	}
	if b.MaxQueueTotal <= 0 {
		b.MaxQueueTotal = 64
	}
	if b.RetryAfter <= 0 {
		b.RetryAfter = time.Second
	}
	if b.CkptEvery <= 0 {
		b.CkptEvery = 25
	}
	return b
}

// weight returns a tenant's configured scheduling weight (default 1).
func (b Budget) weight(tenant string) int {
	if w, ok := b.TenantWeights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// Job states. queued and running are live; done, failed and canceled
// are terminal. A drained job (daemon shutting down mid-run) goes back
// to queued with its state checkpointed on disk.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one admitted simulation job. Scheduling fields (state, queue
// membership, lease) are guarded by the server mutex together with
// j.mu; telemetry written by the runner every step uses atomics and
// repMu so status endpoints never contend with the stepping loop for
// long. Lock order is always Server.mu before Job.mu.
type Job struct {
	id   string
	seq  int64
	spec JobRequest
	// dir is the job's persistence directory ("" in memory mode).
	dir string

	mu          sync.Mutex
	state       string
	errMsg      string
	doneSeq     int64 // completion order, 1-based; 0 while live
	resumedFrom int64 // checkpoint step a restart resumed from; -1 = never
	cancel      context.CancelFunc
	result      []byte // memory mode only; with a dir the result is dir/result.g5ck

	// cancelFlag distinguishes user cancellation from a drain: both
	// cancel the runner context, only cancellation is terminal.
	cancelFlag atomic.Bool

	step         atomic.Int64
	interactions atomic.Int64

	repMu      sync.Mutex
	phases     obs.PhaseSeconds
	lastReport obs.StepReport
	hasReport  bool
	lastHealth g5.Health

	hub  *hub
	done chan struct{}
}

// ID returns the job's server-assigned identity.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// tenantState is the scheduler's per-tenant bookkeeping: a FIFO queue,
// the WRR credit balance, and cumulative accounting for /metrics.
type tenantState struct {
	name    string
	weight  int
	credit  int
	queue   []*Job
	running int

	submitted int64
	completed int64
	failed    int64
	canceled  int64
	rejected  int64
}

// tenantLocked returns (creating if needed) the tenant's scheduler
// state. New tenants enter the rotation in sorted-name position with a
// full credit balance, so admission order alone determines scheduling —
// no map iteration, no wall clock.
func (s *Server) tenantLocked(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, weight: s.budget.weight(name)}
	t.credit = t.weight
	s.tenants[name] = t
	i := sort.SearchStrings(s.order, name)
	s.order = append(s.order, "")
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = name
	if s.cursor > i {
		// Keep the cursor pointing at the same tenant it did before the
		// insertion shifted the slice.
		s.cursor++
	}
	return t
}

// queuedLocked and runningLocked sum the tenant rows: the server keeps
// no totals beside them, so a total cannot drift from its rows.
func (s *Server) queuedLocked() int {
	n := 0
	for _, name := range s.order {
		n += len(s.tenants[name].queue)
	}
	return n
}

func (s *Server) runningLocked() int {
	n := 0
	for _, name := range s.order {
		n += s.tenants[name].running
	}
	return n
}

// feasibleLocked reports whether a job's resource lease fits the pool
// right now.
func (s *Server) feasibleLocked(j *Job) bool {
	return j.spec.Boards <= s.budget.Boards-s.boardsLeased
}

// pickLocked selects the next job under deterministic weighted round
// robin. The cursor scans tenants in sorted-name order; a tenant with
// queued feasible work and credit left is charged one credit and its
// FIFO head dispatched. A full scan that found credit-starved work (but
// nothing dispatchable) replenishes every tenant to its weight and
// scans once more — so with every tenant backlogged, each replenish
// epoch dispatches exactly weight-many jobs per tenant. Tenants whose
// head job cannot fit the board pool are skipped without losing credit.
func (s *Server) pickLocked() (*Job, bool) {
	for pass := 0; pass < 2; pass++ {
		n := len(s.order)
		starved := false
		for i := 0; i < n; i++ {
			t := s.tenants[s.order[(s.cursor+i)%n]]
			if len(t.queue) == 0 {
				continue
			}
			j := t.queue[0]
			if !s.feasibleLocked(j) {
				continue
			}
			if t.credit <= 0 {
				starved = true
				continue
			}
			t.credit--
			t.queue = t.queue[1:]
			s.cursor = (s.cursor + i + 1) % n
			return j, true
		}
		if !starved {
			return nil, false
		}
		for _, name := range s.order {
			s.tenants[name].credit = s.tenants[name].weight
		}
	}
	return nil, false
}

// dispatchLocked starts picked jobs while run slots and board leases
// allow. Called after every event that could unblock work: submission,
// completion, unpause, restart recovery.
func (s *Server) dispatchLocked() {
	for !s.paused && !s.draining && s.runningLocked() < s.budget.MaxRunning {
		j, ok := s.pickLocked()
		if !ok {
			return
		}
		s.startLocked(j)
	}
}

// startLocked leases the job's resources and launches its runner.
func (s *Server) startLocked(j *Job) {
	t := s.tenantLocked(j.spec.Tenant)
	t.running++
	s.boardsLeased += j.spec.Boards
	ctx, cancel := context.WithCancel(s.ctx)
	j.mu.Lock()
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()
	s.persistMetaLocked(j)
	s.wg.Add(1)
	go s.runJob(ctx, j)
}

// finishJob releases the job's lease and records its terminal state —
// or, for a drained job, re-queues it in memory while the durable state
// stays resumable on disk.
func (s *Server) finishJob(j *Job, state, errMsg string) {
	s.mu.Lock()
	t := s.tenantLocked(j.spec.Tenant)
	t.running--
	s.boardsLeased -= j.spec.Boards
	if state == StateQueued { // drained: back to queued, still resumable
		j.mu.Lock()
		j.state, j.errMsg, j.cancel = state, errMsg, nil
		j.mu.Unlock()
		s.persistMetaLocked(j)
	} else {
		s.finalizeLocked(j, state, errMsg)
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// finalizeLocked is every job's one terminal transition (a run's end, a
// queued cancel, a refusal at restart): it bumps the job's tenant's
// counter for state, stamps the completion sequence, persists the
// record and closes the job's event stream and done channel. s.mu must
// be held and j.mu not (server-then-job order).
func (s *Server) finalizeLocked(j *Job, state, errMsg string) {
	t := s.tenantLocked(j.spec.Tenant)
	switch state {
	case StateDone:
		t.completed++
	case StateFailed:
		t.failed++
	case StateCanceled:
		t.canceled++
	}
	s.doneSeq++
	j.mu.Lock()
	j.state, j.errMsg, j.cancel, j.doneSeq = state, errMsg, nil, s.doneSeq
	j.mu.Unlock()
	s.persistMetaLocked(j)
	j.hub.close()
	close(j.done)
}
