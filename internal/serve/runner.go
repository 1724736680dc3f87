package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/fsx"
)

// runJob executes one admitted job to a terminal state (or to a drain
// checkpoint). It owns the Simulation for the job's whole in-process
// lifetime and reports the outcome through finishJob.
func (s *Server) runJob(ctx context.Context, j *Job) {
	defer s.wg.Done()
	state, errMsg := s.executeJob(ctx, j)
	if errMsg != "" {
		s.logf("job %s (%s): %s", j.id, state, errMsg)
	}
	s.finishJob(j, state, errMsg)
}

// executeJob runs the stepping loop: resume-or-create, prime, step,
// publish telemetry, checkpoint periodically, and marshal the final
// state as the job's result. It returns the job's next state — a
// terminal one, or StateQueued when a drain checkpointed mid-run.
func (s *Server) executeJob(ctx context.Context, j *Job) (state, errMsg string) {
	var store *ckpt.Store
	if j.dir != "" {
		st, err := ckpt.OpenStore(filepath.Join(j.dir, "ckpt"), 2)
		if err != nil {
			return StateFailed, fmt.Sprintf("open checkpoint store: %v", err)
		}
		store = st
	}

	sim, resumed, err := s.openSimulation(j, store)
	if err != nil {
		return StateFailed, err.Error()
	}
	defer func() {
		if cerr := sim.Close(); cerr != nil && state == StateDone {
			state, errMsg = StateFailed, fmt.Sprintf("close: %v", cerr)
		}
	}()
	if resumed >= 0 {
		j.mu.Lock()
		j.resumedFrom = resumed
		j.mu.Unlock()
	}
	j.step.Store(int64(sim.Steps()))

	if !sim.Primed() {
		if err := sim.Prime(); err != nil {
			return StateFailed, fmt.Sprintf("prime: %v", err)
		}
	}

	for sim.Steps() < j.spec.Steps {
		select {
		case <-ctx.Done():
			if j.cancelFlag.Load() {
				return StateCanceled, ""
			}
			// Drain: persist the exact mid-run state and bow out; a
			// restarted daemon resumes from here bitwise.
			if store != nil {
				if _, err := sim.Checkpoint(store); err != nil {
					return StateFailed, fmt.Sprintf("drain checkpoint: %v", err)
				}
			}
			return StateQueued, ""
		default:
		}
		if err := sim.Step(); err != nil {
			return StateFailed, fmt.Sprintf("step %d: %v", sim.Steps()+1, err)
		}
		rep := sim.LastReport
		n := int64(sim.Steps())
		j.step.Store(n)
		j.interactions.Add(rep.Interactions)
		s.stepsServed.Add(1)
		s.interactionsServed.Add(rep.Interactions)
		j.repMu.Lock()
		j.phases.Add(rep.Phases)
		j.lastReport = rep
		j.hasReport = true
		j.lastHealth = sim.Health()
		j.repMu.Unlock()
		if frame, err := json.Marshal(Event{Job: j.id, State: StateRunning, Step: n, Report: &rep}); err != nil {
			s.logf("job %s: encode step %d frame: %v", j.id, n, err)
		} else {
			j.hub.publish(frame)
		}
		if store != nil && s.budget.CkptEvery > 0 &&
			sim.Steps()%s.budget.CkptEvery == 0 && sim.Steps() < j.spec.Steps {
			if _, err := sim.Checkpoint(store); err != nil {
				return StateFailed, fmt.Sprintf("checkpoint at step %d: %v", sim.Steps(), err)
			}
		}
	}

	// The result is the run's complete durable state, the same assembly
	// its checkpoints hold. With a run directory it lives on disk only —
	// handleResult reads it back — so finished jobs do not pin their
	// result bytes for the daemon's lifetime.
	if j.dir != "" {
		if _, err := ckpt.WriteFile(filepath.Join(j.dir, "result.g5ck"), sim.DurableState()); err != nil {
			return StateFailed, fmt.Sprintf("write result: %v", err)
		}
		return StateDone, ""
	}
	result, err := ckpt.Marshal(sim.DurableState())
	if err != nil {
		return StateFailed, fmt.Sprintf("marshal result: %v", err)
	}
	j.mu.Lock()
	j.result = result
	j.mu.Unlock()
	return StateDone, ""
}

// openSimulation resumes the job from its latest valid checkpoint when
// one exists, otherwise builds it fresh from the spec. The resumed step
// is returned (-1 when starting fresh); a corrupt store is a loud
// failure, never a silent restart of the physics.
func (s *Server) openSimulation(j *Job, store *ckpt.Store) (*grape5.Simulation, int64, error) {
	if store != nil {
		c, gen, err := store.LatestValid()
		switch {
		case err == nil:
			sim, rerr := grape5.ResumeSimulation(c, j.spec.SimConfig())
			if rerr != nil {
				return nil, -1, fmt.Errorf("resume from %s: %w", gen.File, rerr)
			}
			return sim, gen.Step, nil
		case errors.Is(err, ckpt.ErrNoCheckpoint):
			// fresh start below
		default:
			return nil, -1, fmt.Errorf("checkpoint store: %w", err)
		}
	}
	sim, err := grape5.NewSimulation(j.spec.NewSystem(), j.spec.SimConfig())
	if err != nil {
		return nil, -1, err
	}
	return sim, -1, nil
}

// jobMeta is the durable job record at <data>/jobs/<id>/job.json.
type jobMeta struct {
	ID          string     `json:"id"`
	Seq         int64      `json:"seq"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	DoneSeq     int64      `json:"done_seq"`
	ResumedFrom int64      `json:"resumed_from"`
	Spec        JobRequest `json:"spec"`
}

// persistMetaLocked durably records the job's current state (no-op in
// memory mode). Called with Server.mu held; takes Job.mu, honoring the
// server-then-job lock order. A failed write is logged and the server
// carries on — the in-memory truth is unaffected and the stale on-disk
// state errs toward re-running the job, never losing it.
func (s *Server) persistMetaLocked(j *Job) {
	if j.dir == "" {
		return
	}
	j.mu.Lock()
	m := jobMeta{
		ID:          j.id,
		Seq:         j.seq,
		State:       j.state,
		Error:       j.errMsg,
		DoneSeq:     j.doneSeq,
		ResumedFrom: j.resumedFrom,
		Spec:        j.spec,
	}
	j.mu.Unlock()
	if _, err := fsx.AtomicWriteFile(filepath.Join(j.dir, "job.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	}); err != nil {
		s.logf("job %s: persist meta: %v", j.id, err)
	}
}

// loadJobs scans <data>/jobs for persisted jobs at startup. Terminal
// jobs are kept as they are for listing and result retrieval; queued and
// running jobs (a running record means the previous daemon died mid-run)
// are re-admitted in seq order, resuming from their checkpoints when the
// runner picks them up. Re-admission resolves the persisted request
// under the current budget — a no-op for the resolved request a healthy
// job.json holds — so a torn or hand-edited file, or a restart under a
// smaller budget, cannot put an unjudged job on the queue: one that no
// longer resolves is recorded failed with the reason and never run.
func (s *Server) loadJobs() error {
	root := filepath.Join(s.opts.DataDir, "jobs")
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var revive, refused []*Job
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			s.logf("skipping job dir %s: %v", e.Name(), err)
			continue
		}
		var m jobMeta
		if err := json.Unmarshal(data, &m); err != nil {
			s.logf("skipping job dir %s: bad meta: %v", e.Name(), err)
			continue
		}
		j := &Job{
			id:          m.ID,
			seq:         m.Seq,
			spec:        m.Spec,
			dir:         dir,
			state:       m.State,
			errMsg:      m.Error,
			doneSeq:     m.DoneSeq,
			resumedFrom: m.ResumedFrom,
			hub:         newHub(),
			done:        make(chan struct{}),
		}
		if m.Seq >= s.seq {
			s.seq = m.Seq + 1
		}
		if s.doneSeq < m.DoneSeq {
			s.doneSeq = m.DoneSeq
		}
		switch m.State {
		case StateDone, StateFailed, StateCanceled:
			j.hub.close()
			close(j.done)
			if m.State == StateDone {
				j.step.Store(int64(m.Spec.Steps))
			}
		default:
			if spec, err := m.Spec.resolve(s.budget); err != nil {
				j.errMsg = fmt.Sprintf("not re-admitted at restart: %v", err)
				refused = append(refused, j)
			} else {
				j.spec, j.state = spec, StateQueued
				revive = append(revive, j)
			}
		}
		s.jobs[j.id] = j
		s.jobList = append(s.jobList, j)
	}
	sortJobsBySeq(s.jobList)
	sortJobsBySeq(revive)
	sortJobsBySeq(refused)
	for _, j := range revive {
		t := s.tenantLocked(j.spec.Tenant)
		t.queue = append(t.queue, j)
	}
	// Refused jobs complete (as failures) after everything the previous
	// daemon finished, in admission order.
	for _, j := range refused {
		s.logf("job %s: %s", j.id, j.errMsg)
		s.finalizeLocked(j, StateFailed, j.errMsg)
	}
	return nil
}

// sortJobsBySeq orders jobs by admission sequence — the stable identity
// restarts preserve.
func sortJobsBySeq(jobs []*Job) {
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
}
