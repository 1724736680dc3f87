package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/g5"
	"repro/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Budget is the admission-control envelope (zero fields default).
	Budget Budget
	// DataDir is the persistence root; "" runs in memory (no job
	// survives the process — test and throwaway use only).
	DataDir string
	// StartPaused admits jobs without dispatching them until SetPaused
	// (false); tests use it to make dispatch order independent of
	// submission timing.
	StartPaused bool
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Server is the multi-tenant job server. One mutex guards all
// scheduling state — admission, queues, leases, the tenant rotation;
// per-step telemetry goes through job-local atomics so the stepping
// runners touch it only at job boundaries.
type Server struct {
	opts   Options
	budget Budget
	start  time.Time

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
	mux  *http.ServeMux

	mu           sync.Mutex
	tenants      map[string]*tenantState
	order        []string
	cursor       int
	jobs         map[string]*Job
	jobList      []*Job
	seq          int64
	doneSeq      int64
	running      int
	boardsLeased int
	queueTotal   int
	paused       bool
	draining     bool

	submitted int64
	completed int64
	failed    int64
	canceled  int64
	rejected  int64

	stepsServed        atomic.Int64
	interactionsServed atomic.Int64
}

// NewServer builds a server, recovering persisted jobs from
// Options.DataDir (jobs recorded queued or running are re-queued and
// resume from their checkpoints). Dispatch begins immediately unless
// StartPaused.
func NewServer(o Options) (*Server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    o,
		budget:  o.Budget.withDefaults(),
		start:   time.Now(),
		ctx:     ctx,
		stop:    cancel,
		tenants: make(map[string]*tenantState),
		jobs:    make(map[string]*Job),
		seq:     1,
		paused:  o.StartPaused,
	}
	if o.DataDir != "" {
		if err := os.MkdirAll(filepath.Join(o.DataDir, "jobs"), 0o755); err != nil {
			cancel()
			return nil, err
		}
		s.mu.Lock()
		err := s.loadJobs()
		if err == nil {
			s.dispatchLocked()
		}
		s.mu.Unlock()
		if err != nil {
			cancel()
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// logf logs through Options.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// SetPaused toggles dispatch. Unpausing dispatches immediately.
func (s *Server) SetPaused(paused bool) {
	s.mu.Lock()
	s.paused = paused
	if !paused {
		s.dispatchLocked()
	}
	s.mu.Unlock()
}

// Shutdown drains the server: new submissions get 503, running jobs
// checkpoint their exact state and stop (remaining resumable on
// restart), and once every runner has exited the event streams close.
// The ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for _, j := range s.jobList {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.stop()
	return err
}

// Close is Shutdown with an unbounded wait — runners notice the drain
// at their next step boundary, so it returns quickly for any job the
// budget admits.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// JobStatus is the wire representation of one job.
type JobStatus struct {
	ID     string     `json:"id"`
	Tenant string     `json:"tenant"`
	State  string     `json:"state"`
	Spec   JobRequest `json:"spec"`
	Step   int64      `json:"step"`
	Steps  int        `json:"target_steps"`
	// Progress is completed steps over target, in [0, 1].
	Progress     float64 `json:"progress"`
	Interactions int64   `json:"interactions"`
	// ResumedFrom is the checkpoint step a daemon restart resumed this
	// job from (-1: never resumed).
	ResumedFrom int64 `json:"resumed_from"`
	// DoneSeq is the 1-based completion order (0 while live) — the
	// fairness tests' ground truth.
	DoneSeq int64  `json:"done_seq"`
	Error   string `json:"error"`
	// Phases is the per-phase time accumulated over all completed steps.
	Phases obs.PhaseSeconds `json:"phases"`
	// LastReport is the most recent completed step's telemetry.
	LastReport *obs.StepReport `json:"last_report,omitempty"`
}

// status snapshots a job for the wire.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:          j.id,
		Tenant:      j.spec.Tenant,
		State:       j.state,
		Spec:        j.spec,
		Steps:       j.spec.Steps,
		ResumedFrom: j.resumedFrom,
		DoneSeq:     j.doneSeq,
		Error:       j.errMsg,
	}
	j.mu.Unlock()
	st.Step = j.step.Load()
	st.Interactions = j.interactions.Load()
	if st.Steps > 0 {
		st.Progress = float64(st.Step) / float64(st.Steps)
	}
	j.repMu.Lock()
	st.Phases = j.phases
	if j.hasReport {
		rep := j.lastReport
		st.LastReport = &rep
	}
	j.repMu.Unlock()
	return st
}

// writeJSON writes v as a JSON response with the given status code. The
// body is encoded before the header goes out, so a value encoding/json
// refuses (a non-finite float) is answered with a logged 500 and the
// error, never a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("encode %T response: %v", v, err)
		code = http.StatusInternalServerError
		body.Reset()
		_ = enc.Encode(errorBody{Error: err.Error()}) // a struct of one string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body.Bytes()) // a failed write means the client is gone
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxRequestBytes bounds a job request body; admission control starts
// at the socket.
const maxRequestBytes = 1 << 20

// handleSubmit admits one job: decode and validate against the budget
// (400), check queue bounds (429 + Retry-After — explicit backpressure,
// never a silent drop or an unbounded queue), persist, enqueue,
// dispatch.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeJobRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes), s.budget)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	j, code, err := s.submit(spec)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((s.budget.RetryAfter+time.Second-1)/time.Second)))
		}
		s.writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.status())
}

// submit runs admission under the scheduler lock. The returned code is
// meaningful only on error: 429 for queue pressure, 503 while draining.
func (s *Server) submit(spec JobRequest) (*Job, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining")
	}
	t := s.tenantLocked(spec.Tenant)
	if len(t.queue) >= s.budget.MaxQueuedPerTenant {
		t.rejected++
		s.rejected++
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("tenant %s queue full (%d queued)", spec.Tenant, len(t.queue))
	}
	if s.queueTotal >= s.budget.MaxQueueTotal {
		t.rejected++
		s.rejected++
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("server queue full (%d queued)", s.queueTotal)
	}
	j := &Job{
		id:          fmt.Sprintf("job-%06d", s.seq),
		seq:         s.seq,
		spec:        spec,
		state:       StateQueued,
		resumedFrom: -1,
		hub:         newHub(),
		done:        make(chan struct{}),
	}
	s.seq++
	if s.opts.DataDir != "" {
		j.dir = filepath.Join(s.opts.DataDir, "jobs", j.id)
		if err := os.MkdirAll(j.dir, 0o755); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	s.persistMetaLocked(j)
	s.jobs[j.id] = j
	s.jobList = append(s.jobList, j)
	t.queue = append(t.queue, j)
	s.queueTotal++
	t.submitted++
	s.submitted++
	s.dispatchLocked()
	return j, http.StatusAccepted, nil
}

// jobFor resolves the {id} path value.
func (s *Server) jobFor(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return j, ok
}

// handleList returns every known job in admission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, len(s.jobList))
	copy(jobs, s.jobList)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleStatus returns one job.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

// handleCancel cancels a job: a queued job is removed from its tenant's
// queue and finalized on the spot; a running job's context is canceled
// and its runner finalizes it at the next step boundary. Idempotent —
// canceling a terminal job reports its (unchanged) status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.mu.Lock()
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		t := s.tenantLocked(j.spec.Tenant)
		for i, q := range t.queue {
			if q == j {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				s.queueTotal--
				break
			}
		}
		j.state = StateCanceled
		s.canceled++
		t.canceled++
		s.doneSeq++
		j.doneSeq = s.doneSeq
		j.mu.Unlock()
		s.persistMetaLocked(j)
		s.mu.Unlock()
		j.hub.close()
		close(j.done)
	case StateRunning:
		j.cancelFlag.Store(true)
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		s.mu.Unlock()
	default:
		j.mu.Unlock()
		s.mu.Unlock()
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

// handleResult serves a completed job's result checkpoint — the bytes
// whose equality across runs is the service's determinism contract.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	j.mu.Lock()
	state, result, dir := j.state, j.result, j.dir
	j.mu.Unlock()
	if state != StateDone {
		s.writeJSON(w, http.StatusConflict, errorBody{Error: "job is " + state + ", result exists only for done jobs"})
		return
	}
	if result == nil && dir != "" {
		data, err := os.ReadFile(filepath.Join(dir, "result.g5ck"))
		if err != nil {
			s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		result = data
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(result)
}

// handleEvents streams a job's per-step telemetry as SSE. The stream
// ends with a final status frame when the job reaches a terminal state;
// subscribing to a finished job yields the final frame immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streaming unsupported"})
		return
	}
	ch := j.hub.subscribe()
	defer j.hub.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeFrame := func(payload []byte) bool {
		if _, err := fmt.Fprintf(w, "data: %s\n\n", payload); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	statusFrame := func() []byte {
		st := j.status()
		b, err := json.Marshal(Event{Job: j.id, State: st.State, Step: st.Step, Report: st.LastReport})
		if err != nil {
			s.logf("job %s: encode status frame: %v", j.id, err)
			return []byte(`{}`)
		}
		return b
	}
	if !writeFrame(statusFrame()) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		case frame, open := <-ch:
			if !open {
				writeFrame(statusFrame())
				return
			}
			if !writeFrame(frame) {
				return
			}
		}
	}
}

// JobHealth pairs a running job with its hardware health snapshot.
type JobHealth struct {
	Job    string    `json:"job"`
	Tenant string    `json:"tenant"`
	Health g5.Health `json:"health"`
}

// HealthStatus is the /healthz body: the service's own state plus the
// per-board guard health of every running job's hardware.
type HealthStatus struct {
	// Status is "ok", "degraded" (some running job's boards are out of
	// service or fully host-fallback) or "draining".
	Status        string      `json:"status"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	BoardsLeased  int         `json:"boards_leased"`
	BoardsPool    int         `json:"boards_pool"`
	Running       []JobHealth `json:"running"`
}

// handleHealthz reports liveness and per-board guard health.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := HealthStatus{
		Status:       "ok",
		BoardsLeased: s.boardsLeased,
		BoardsPool:   s.budget.Boards,
		Running:      []JobHealth{},
	}
	draining := s.draining
	var runningJobs []*Job
	for _, j := range s.jobList {
		j.mu.Lock()
		if j.state == StateRunning {
			runningJobs = append(runningJobs, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	h.UptimeSeconds = time.Since(s.start).Seconds()
	for _, j := range runningJobs {
		j.repMu.Lock()
		jh := JobHealth{Job: j.id, Tenant: j.spec.Tenant, Health: j.lastHealth}
		j.repMu.Unlock()
		if jh.Health.Boards == nil {
			jh.Health.Boards = []g5.BoardHealth{}
		}
		if jh.Health.Degraded() {
			h.Status = "degraded"
		}
		h.Running = append(h.Running, jh)
	}
	if draining {
		h.Status = "draining"
	}
	s.writeJSON(w, http.StatusOK, h)
}

// TenantMetrics is one tenant's row in /metrics.
type TenantMetrics struct {
	Tenant    string `json:"tenant"`
	Weight    int    `json:"weight"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	Canceled  int64  `json:"canceled"`
	Rejected  int64  `json:"rejected"`
}

// Metrics is the /metrics body.
type Metrics struct {
	UptimeSeconds      float64         `json:"uptime_seconds"`
	QueueDepth         int             `json:"queue_depth"`
	Running            int             `json:"running"`
	BoardsLeased       int             `json:"boards_leased"`
	BoardsPool         int             `json:"boards_pool"`
	Paused             bool            `json:"paused"`
	Draining           bool            `json:"draining"`
	JobsSubmitted      int64           `json:"jobs_submitted"`
	JobsCompleted      int64           `json:"jobs_completed"`
	JobsFailed         int64           `json:"jobs_failed"`
	JobsCanceled       int64           `json:"jobs_canceled"`
	JobsRejected       int64           `json:"jobs_rejected"`
	StepsServed        int64           `json:"steps_served"`
	InteractionsServed int64           `json:"interactions_served"`
	Tenants            []TenantMetrics `json:"tenants"`
}

// handleMetrics reports queue depth, lease usage and per-tenant
// accounting, tenants sorted by name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := Metrics{
		QueueDepth:    s.queueTotal,
		Running:       s.running,
		BoardsLeased:  s.boardsLeased,
		BoardsPool:    s.budget.Boards,
		Paused:        s.paused,
		Draining:      s.draining,
		JobsSubmitted: s.submitted,
		JobsCompleted: s.completed,
		JobsFailed:    s.failed,
		JobsCanceled:  s.canceled,
		JobsRejected:  s.rejected,
		Tenants:       []TenantMetrics{},
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tenants[name]
		m.Tenants = append(m.Tenants, TenantMetrics{
			Tenant:    t.name,
			Weight:    t.weight,
			Queued:    len(t.queue),
			Running:   t.running,
			Submitted: t.submitted,
			Completed: t.completed,
			Failed:    t.failed,
			Canceled:  t.canceled,
			Rejected:  t.rejected,
		})
	}
	s.mu.Unlock()
	m.UptimeSeconds = time.Since(s.start).Seconds()
	m.StepsServed = s.stepsServed.Load()
	m.InteractionsServed = s.interactionsServed.Load()
	s.writeJSON(w, http.StatusOK, m)
}
