package serve_test

// End-to-end service tests against an in-process loopback daemon: N
// concurrent tenants, fair completion order under weighted round
// robin, explicit 429 backpressure (a saturated server must reject
// loudly, never block or drop), and the determinism contract — every
// accepted job's final result bytes identical to the same configuration
// run through the Simulation API directly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/serve"
)

// testServer is an in-process loopback simd.
type testServer struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, o serve.Options) *testServer {
	t.Helper()
	srv, err := serve.NewServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// LIFO: the serve.Server must drain (closing SSE streams) before the
	// httptest server waits on its outstanding handlers.
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return &testServer{srv: srv, ts: ts}
}

func (e *testServer) url(path string) string { return e.ts.URL + path }

// postJob submits a job request body, returning the HTTP status and
// decoded response.
func (e *testServer) postJob(t *testing.T, body string) (int, serve.JobStatus, http.Header) {
	t.Helper()
	resp, err := http.Post(e.url("/jobs"), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad job response %q: %v", data, err)
		}
	}
	return resp.StatusCode, st, resp.Header
}

// mustSubmit submits and requires 202.
func (e *testServer) mustSubmit(t *testing.T, body string) serve.JobStatus {
	t.Helper()
	code, st, _ := e.postJob(t, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit %q: status %d", body, code)
	}
	return st
}

// getJSON decodes a GET response into out.
func (e *testServer) getJSON(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(e.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// waitState polls a job until it reaches a terminal state.
func (e *testServer) waitTerminal(t *testing.T, id string, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st serve.JobStatus
		e.getJSON(t, "/jobs/"+id, &st)
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func jobBody(tenant string, n, steps int) string {
	return fmt.Sprintf(`{"tenant":%q,"model":"plummer","n":%d,"steps":%d}`, tenant, n, steps)
}

// TestE2EFairRotation: three equal-weight tenants each submit a
// backlog; with one run slot the completion order must be a strict
// rotation — no tenant finishes job k+1 before every tenant finished
// job k.
func TestE2EFairRotation(t *testing.T) {
	e := newTestServer(t, serve.Options{
		Budget:      serve.Budget{MaxRunning: 1, MaxQueuedPerTenant: 8, MaxQueueTotal: 64},
		StartPaused: true,
	})
	tenants := []string{"alice", "bob", "carol"}
	const perTenant = 3
	ids := make(map[string]string) // job id -> tenant
	// Submit each tenant's whole backlog in turn; fairness must come
	// from the scheduler, not from interleaved submission order.
	for _, tn := range tenants {
		for k := 0; k < perTenant; k++ {
			st := e.mustSubmit(t, jobBody(tn, 64, 2))
			ids[st.ID] = tn
		}
	}
	e.srv.SetPaused(false)
	finished := make([]serve.JobStatus, 0, len(ids))
	for id := range ids {
		finished = append(finished, e.waitTerminal(t, id, 60*time.Second))
	}
	order := completionOrder(t, finished)
	for i, st := range order {
		if st.State != serve.StateDone {
			t.Fatalf("job %s finished %s (%s)", st.ID, st.State, st.Error)
		}
		if want := tenants[i%len(tenants)]; ids[st.ID] != want {
			t.Fatalf("completion %d is tenant %s, want %s (order %v)",
				i, ids[st.ID], want, tenantOrder(order, ids))
		}
	}
}

// completionOrder sorts finished jobs by their done_seq.
func completionOrder(t *testing.T, jobs []serve.JobStatus) []serve.JobStatus {
	t.Helper()
	out := append([]serve.JobStatus(nil), jobs...)
	for i := range out {
		if out[i].DoneSeq == 0 {
			t.Fatalf("job %s has no done_seq", out[i].ID)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].DoneSeq > out[j].DoneSeq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func tenantOrder(order []serve.JobStatus, ids map[string]string) []string {
	names := make([]string, len(order))
	for i, st := range order {
		names[i] = ids[st.ID]
	}
	return names
}

// TestE2EWeightedFairness: with weights alice=2, bob=1 and both tenants
// backlogged, every completion window of 3 must contain alice twice and
// bob once — the WRR credit contract.
func TestE2EWeightedFairness(t *testing.T) {
	e := newTestServer(t, serve.Options{
		Budget: serve.Budget{
			MaxRunning:         1,
			MaxQueuedPerTenant: 8,
			MaxQueueTotal:      64,
			TenantWeights:      map[string]int{"alice": 2, "bob": 1},
		},
		StartPaused: true,
	})
	ids := make(map[string]string)
	for k := 0; k < 6; k++ {
		ids[e.mustSubmit(t, jobBody("alice", 64, 2)).ID] = "alice"
	}
	for k := 0; k < 3; k++ {
		ids[e.mustSubmit(t, jobBody("bob", 64, 2)).ID] = "bob"
	}
	e.srv.SetPaused(false)
	finished := make([]serve.JobStatus, 0, len(ids))
	for id := range ids {
		finished = append(finished, e.waitTerminal(t, id, 60*time.Second))
	}
	order := completionOrder(t, finished)
	for w := 0; w+3 <= len(order); w += 3 {
		count := map[string]int{}
		for _, st := range order[w : w+3] {
			count[ids[st.ID]]++
		}
		if count["alice"] != 2 || count["bob"] != 1 {
			t.Fatalf("window %d: got %v, want alice=2 bob=1 (order %v)",
				w/3, count, tenantOrder(order, ids))
		}
	}
}

// TestE2EBackpressure: a saturated queue answers 429 with a Retry-After
// hint — and every job that was accepted still completes once the
// pressure lifts. Nothing blocks, nothing is silently dropped.
func TestE2EBackpressure(t *testing.T) {
	e := newTestServer(t, serve.Options{
		Budget: serve.Budget{
			MaxRunning:         1,
			MaxQueuedPerTenant: 2,
			MaxQueueTotal:      3,
			RetryAfter:         2 * time.Second,
		},
		StartPaused: true,
	})
	var accepted []string
	// Tenant queue bound: third submission for the same tenant is 429.
	for k := 0; k < 2; k++ {
		accepted = append(accepted, e.mustSubmit(t, jobBody("alice", 64, 2)).ID)
	}
	code, _, hdr := e.postJob(t, jobBody("alice", 64, 2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit got %d, want 429", code)
	}
	if got := hdr.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	// Total queue bound: bob fits once, then the server is full.
	accepted = append(accepted, e.mustSubmit(t, jobBody("bob", 64, 2)).ID)
	code, _, hdr = e.postJob(t, jobBody("carol", 64, 2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("server-full submit got %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("server-full 429 lacks Retry-After")
	}
	var m serve.Metrics
	e.getJSON(t, "/metrics", &m)
	if m.JobsRejected != 2 {
		t.Errorf("jobs_rejected = %d, want 2", m.JobsRejected)
	}
	if m.QueueDepth != 3 {
		t.Errorf("queue_depth = %d, want 3", m.QueueDepth)
	}
	// Pressure lifts: everything accepted completes.
	e.srv.SetPaused(false)
	for _, id := range accepted {
		if st := e.waitTerminal(t, id, 60*time.Second); st.State != serve.StateDone {
			t.Errorf("accepted job %s finished %s (%s)", id, st.State, st.Error)
		}
	}
	e.getJSON(t, "/metrics", &m)
	if m.JobsCompleted != int64(len(accepted)) {
		t.Errorf("jobs_completed = %d, want %d", m.JobsCompleted, len(accepted))
	}
	for i := 1; i < len(m.Tenants); i++ {
		if m.Tenants[i-1].Tenant >= m.Tenants[i].Tenant {
			t.Errorf("tenants not sorted: %q before %q", m.Tenants[i-1].Tenant, m.Tenants[i].Tenant)
		}
	}
}

// referenceResult runs a job spec through the Simulation API directly
// and marshals the final state exactly as the server does.
func referenceResult(t *testing.T, body string) []byte {
	t.Helper()
	spec, err := serve.DecodeJobRequest(strings.NewReader(body), serve.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := grape5.NewSimulation(spec.NewSystem(), spec.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := sim.Close(); cerr != nil {
			t.Errorf("reference close: %v", cerr)
		}
	}()
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	for sim.Steps() < spec.Steps {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ckpt.Marshal(sim.DurableState())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestE2EBitwiseIdentity: concurrent jobs across engines and board
// leases — each result must be byte-identical to the same configuration
// run standalone. Multiplexing must not leak between jobs.
func TestE2EBitwiseIdentity(t *testing.T) {
	e := newTestServer(t, serve.Options{
		Budget:  serve.Budget{MaxRunning: 2, Boards: 4, CkptEvery: 2},
		DataDir: t.TempDir(),
	})
	bodies := []string{
		`{"tenant":"alice","model":"plummer","n":96,"steps":4}`,
		`{"tenant":"bob","model":"uniform","n":64,"steps":3,"engine":"grape5"}`,
		`{"tenant":"carol","model":"plummer","n":80,"steps":3,"engine":"grape5","boards":2,"seed":7}`,
		`{"tenant":"alice","model":"plummer","n":96,"steps":4,"theta":0.9,"dt":0.004}`,
	}
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		ids[i] = e.mustSubmit(t, b).ID
	}
	for i, id := range ids {
		st := e.waitTerminal(t, id, 120*time.Second)
		if st.State != serve.StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		resp, err := http.Get(e.url("/jobs/" + id + "/result"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: status %d, %v", id, resp.StatusCode, err)
		}
		want := referenceResult(t, bodies[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%s): result differs from standalone run (%d vs %d bytes) — the shared server leaked state between jobs",
				id, bodies[i], len(got), len(want))
		}
		// The result must round-trip the checkpoint reader: structurally
		// valid, CRC-clean.
		if _, err := ckpt.Read(bytes.NewReader(got)); err != nil {
			t.Errorf("job %s: result does not parse as a checkpoint: %v", id, err)
		}
	}
	// A result for an unfinished job is a 409, never a torn byte stream.
	resp, err := http.Get(e.url("/jobs/job-999999/result"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("result of unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestE2ERestartRecovery: an in-process "daemon restart" — jobs queued
// in a persistent server survive Close and complete after a new server
// opens the same data directory.
func TestE2ERestartRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newTestServer(t, serve.Options{
		Budget:      serve.Budget{MaxRunning: 1},
		DataDir:     dir,
		StartPaused: true,
	})
	body := jobBody("alice", 64, 3)
	id := e.mustSubmit(t, body).ID
	if err := e.srv.Close(); err != nil {
		t.Fatal(err)
	}
	e.ts.Close()

	e2 := newTestServer(t, serve.Options{Budget: serve.Budget{MaxRunning: 1}, DataDir: dir})
	var listed []serve.JobStatus
	e2.getJSON(t, "/jobs", &listed)
	if len(listed) != 1 || listed[0].ID != id {
		t.Fatalf("restarted server lists %+v, want job %s", listed, id)
	}
	st := e2.waitTerminal(t, id, 60*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("revived job finished %s (%s)", st.State, st.Error)
	}
	resp, err := http.Get(e2.url("/jobs/" + id + "/result"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, %v", resp.StatusCode, err)
	}
	if want := referenceResult(t, body); !bytes.Equal(got, want) {
		t.Error("revived job's result differs from the standalone run")
	}
}

// TestE2ERestartReadmission: a restart re-resolves every job it would
// revive under the current budget. A job.json edited (or torn, or
// written under a larger budget) so that its request no longer resolves
// — here n = MaxParticles+1 — is listed as failed with the reason and
// never run; its untouched neighbour is revived and completes.
func TestE2ERestartReadmission(t *testing.T) {
	dir := t.TempDir()
	budget := serve.Budget{MaxRunning: 1, MaxParticles: 64}
	e := newTestServer(t, serve.Options{Budget: budget, DataDir: dir, StartPaused: true})
	keep := e.mustSubmit(t, jobBody("alice", 64, 2)).ID
	edit := e.mustSubmit(t, jobBody("bob", 48, 2)).ID
	if err := e.srv.Close(); err != nil {
		t.Fatal(err)
	}
	e.ts.Close()

	metaPath := filepath.Join(dir, "jobs", edit, "job.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta["spec"].(map[string]any)["n"] = budget.MaxParticles + 1
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newTestServer(t, serve.Options{Budget: budget, DataDir: dir})
	var st serve.JobStatus
	e2.getJSON(t, "/jobs/"+edit, &st)
	if st.State != serve.StateFailed || !strings.Contains(st.Error, "out of budget") || st.Step != 0 {
		t.Errorf("over-budget job after restart: state %s, step %d, error %q; want failed at step 0 with the budget reason",
			st.State, st.Step, st.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", edit, "ckpt")); !os.IsNotExist(err) {
		t.Errorf("refused job has a checkpoint store (stat: %v): it was run", err)
	}
	if got := e2.waitTerminal(t, keep, 60*time.Second); got.State != serve.StateDone {
		t.Errorf("untouched job finished %s (%s), want done", got.State, got.Error)
	}
	// The refusal is durable: the record on disk is terminal now.
	if raw, err = os.ReadFile(metaPath); err != nil || !strings.Contains(string(raw), `"state":"failed"`) {
		t.Errorf("refused job's job.json not rewritten as failed (%v): %s", err, raw)
	}
	// A failed record carries every jobMeta field: pin the durable schema
	// on the file the daemon wrote.
	checkGolden(t, "job_meta.golden.json", schemaOfJSON(t, raw))
}
