package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/serve"
)

// The serve workload's traffic. The loop is closed: each client submits
// its next job only after it holds the previous job's result bytes, so a
// slower server receives less load. One client per tenant.
const (
	serveClients = 2
	// serveSampled is how many jobs per client are checked byte for byte
	// against a standalone Simulation run (8 in all): jobs 0..3, which
	// include one of the grape5 jobs.
	serveSampled   = 4
	serveSetupReps = 9
	// serveWindow is how many consecutive job completions, over both
	// clients, one throughput window holds: 8 rounds of each client's
	// four-job cycle, about 2 s.
	serveWindow = 64
)

var serveBudget = serve.Budget{MaxRunning: 2, Boards: 2}

// jobBody is the request of client c's k-th job: three host Plummer jobs
// of N=256 x 50 steps, then one single-board grape5 job of N=512 x 4
// steps. Every job has its own IC seed derived from the run's seed.
func jobBody(seed uint64, c, k int, smoke bool) []byte {
	req := serve.JobRequest{
		Tenant: fmt.Sprintf("tenant-%d", c),
		Model:  serve.ModelPlummer,
		N:      256, Steps: 50, Ncrit: 32,
		Seed: seed*2654435761 + uint64(c)*1000003 + uint64(k) + 1,
	}
	if k%4 == 3 {
		req.N, req.Steps, req.Ncrit = 512, 4, 0
		req.Engine, req.Boards = serve.EngineGRAPE5, 1
	}
	if smoke {
		req.N, req.Steps = 64, max(2, req.Steps/10)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return body
}

// jobTrace is what one client saw of one job, from outside the server.
type jobTrace struct {
	body                         []byte
	submitted, accepted          time.Time // POST sent, 202 received
	running, firstStep, streamed time.Time // SSE: state left queued, first step frame, stream closed
	fetched                      time.Time // result bytes held
	stepFrames, steps            int
	particleSteps                float64 // N x steps of the job
	result                       []byte
	requests, failed             int
}

// serveInstance is a running server behind httptest.
type serveInstance struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startServe(dataDir string) (*serveInstance, error) {
	srv, err := serve.NewServer(serve.Options{Budget: serveBudget, DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	return &serveInstance{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (si *serveInstance) stop() error {
	err := si.srv.Close()
	si.ts.Close()
	return err
}

// submit POSTs one job and returns its ID. A refusal is a failed
// operation, reported as an error.
func (si *serveInstance) submit(body []byte) (string, error) {
	resp, err := si.ts.Client().Post(si.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// runJob drives one job through submit, the event stream and the result
// fetch, stamping each boundary.
func (si *serveInstance) runJob(body []byte) (jobTrace, error) {
	jt := jobTrace{body: body, requests: 3}
	var req serve.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return jt, err
	}
	jt.steps, jt.particleSteps = req.Steps, float64(req.N)*float64(req.Steps)

	jt.submitted = time.Now()
	id, err := si.submit(body)
	jt.accepted = time.Now()
	if err != nil {
		jt.failed++
		return jt, err
	}

	resp, err := si.ts.Client().Get(si.ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		jt.failed++
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		jt.failed++
		return jt, fmt.Errorf("events: %s", resp.Status)
	}
	// The stream is: a status frame, one frame per step published while
	// subscribed, and a closing status frame.
	frames := 0
	var last serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		if err := json.Unmarshal([]byte(payload), &last); err != nil {
			resp.Body.Close()
			jt.failed++
			return jt, fmt.Errorf("events: %w", err)
		}
		frames++
		if jt.running.IsZero() && last.State != serve.StateQueued {
			jt.running = now
		}
		if frames == 2 {
			jt.firstStep = now
		}
	}
	jt.streamed = time.Now()
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		jt.failed++
		return jt, fmt.Errorf("events: %w", err)
	}
	jt.stepFrames = max(0, frames-2)
	if last.State != serve.StateDone {
		jt.failed++
		return jt, fmt.Errorf("job %s ended %s", id, last.State)
	}

	resp, err = si.ts.Client().Get(si.ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		jt.failed++
		return jt, err
	}
	defer resp.Body.Close()
	jt.result, err = io.ReadAll(resp.Body)
	jt.fetched = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		jt.failed++
		return jt, fmt.Errorf("result: %s: %v", resp.Status, err)
	}
	return jt, nil
}

// standalone runs a job request through the Simulation API directly and
// marshals the final state exactly as the server does.
func standalone(body []byte) (result []byte, err error) {
	spec, err := serve.DecodeJobRequest(bytes.NewReader(body), serveBudget)
	if err != nil {
		return nil, err
	}
	sim, err := grape5.NewSimulation(spec.NewSystem(), spec.SimConfig())
	if err != nil {
		return nil, err
	}
	defer closeWith(&err, sim.Close)
	if err := sim.Prime(); err != nil {
		return nil, err
	}
	if err := sim.Run(spec.Steps); err != nil {
		return nil, err
	}
	return ckpt.Marshal(&ckpt.Checkpoint{State: sim.CheckpointState(), Sys: sim.Sys})
}

// measureServeSetup times a cold start: server start through the first
// job's result bytes in hand, on a throwaway instance. The first job's
// run is part of it on purpose. Start through "accepted" alone is 3 ms of
// mostly fsync latency, which the disk moves by 30% from one minute to
// the next; with the job included the figure is steady, and work moved
// into start-up still shows.
func measureServeSetup(dir string, body []byte) (float64, error) {
	t0 := time.Now()
	si, err := startServe(dir)
	if err != nil {
		return 0, err
	}
	_, err = si.runJob(body)
	d := time.Since(t0).Seconds()
	if serr := si.stop(); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return d, err
}

// runServe is the serve_smalljobs workload. The client loop records its
// boundary timestamps in either mode; the traced run adds the layer
// replays: the same specs on bare Simulations, and request decoding.
func runServe(o runOpts, traced bool) (runResult, error) {
	ck := &checker{}
	var setups []float64
	for i := 0; i < serveSetupReps; i++ {
		d, err := measureServeSetup(filepath.Join(o.scratch, fmt.Sprintf("setup-%d", i)), jobBody(o.seed, 0, 0, o.smoke))
		if err != nil {
			return runResult{}, err
		}
		setups = append(setups, d)
	}

	si, err := startServe(filepath.Join(o.scratch, "data"))
	if err != nil {
		return runResult{}, err
	}
	budget := o.seconds
	if traced {
		budget /= 2 // the bare replay takes the other half
	}
	start := time.Now()
	traces := make([][]jobTrace, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < serveSampled || time.Since(start).Seconds() < budget; k++ {
				jt, err := si.runJob(jobBody(o.seed, c, k, o.smoke))
				traces[c] = append(traces[c], jt)
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	rss, rssErr := peakRSSMB()
	rejected, merr := si.rejected()
	if err := si.stop(); err != nil {
		return runResult{}, err
	}
	if rssErr != nil {
		return runResult{}, rssErr
	}
	if merr != nil {
		return runResult{}, merr
	}

	var all []jobTrace
	res := runResult{}
	for c := range traces {
		for _, jt := range traces[c] {
			res.Attempted += jt.requests
			res.Failed += jt.failed
			if jt.failed == 0 {
				all = append(all, jt)
			}
		}
		if errs[c] != nil {
			fmt.Printf("client %d stopped: %v\n", c, errs[c])
		}
	}
	if len(all) == 0 {
		return runResult{}, fmt.Errorf("no job completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].fetched.Before(all[j].fetched) })
	col := func(f func(jobTrace) time.Duration) []float64 {
		xs := make([]float64, len(all))
		for i, jt := range all {
			xs[i] = f(jt).Seconds()
		}
		return xs
	}
	latency := col(func(jt jobTrace) time.Duration { return jt.fetched.Sub(jt.submitted) })
	var framesGot, framesWant int
	for _, jt := range all {
		framesGot += jt.stepFrames
		framesWant += jt.steps
	}
	// Throughput over every stretch of serveWindow consecutive completions:
	// a completion's cost is the time since the one before it.
	cost, work := make([]float64, len(all)), make([]float64, len(all))
	for i, jt := range all {
		prev := start
		if i > 0 {
			prev = all[i-1].fetched
		}
		cost[i], work[i] = jt.fetched.Sub(prev).Seconds(), jt.particleSteps
	}
	rates := windowRates(cost, work, serveWindow)
	fmt.Printf("run: jobs=%d clients=%d wall=%.3fs rejected=%d\n", len(all), serveClients, wall, rejected)

	fmt.Println("checks:")
	ck.require(res.Failed == 0, "no request failed or was refused (%d of %d)", res.Failed, res.Attempted)
	same := 0
	for c := range traces {
		for k := 0; k < serveSampled && k < len(traces[c]); k++ {
			want, err := standalone(traces[c][k].body)
			if err != nil {
				return runResult{}, err
			}
			if bytes.Equal(want, traces[c][k].result) {
				same++
			}
		}
	}
	ck.require(same == serveClients*serveSampled,
		"/result bytes equal a standalone Simulation run for %d of %d sampled jobs", same, serveClients*serveSampled)
	res.Correct = ck.correct()

	if !traced {
		ms := newMetricSet(endToEnd)
		ms.set("setup_s", slices.Min(setups), len(setups))
		ms.set("op_wall_min_s", slices.Min(latency), len(latency))
		ms.set("particle_steps_per_s", slices.Max(rates), len(rates))
		ms.set("peak_rss_mb", rss, 1)
		ms.print()
		res.Metrics, err = ms.finish(false)
		return res, err
	}

	ms := newMetricSet(perLayer)
	n := len(all)
	ms.set("serve.jobs_per_s", float64(n)/wall, n)
	ms.set("serve.job_latency_p90_s", quantile(latency, 0.9), n)
	ms.set("serve.first_step_latency_p50_s",
		median(col(func(jt jobTrace) time.Duration { return jt.firstStep.Sub(jt.submitted) })), n)
	ms.set("serve.submit_p50_s", median(col(func(jt jobTrace) time.Duration { return jt.accepted.Sub(jt.submitted) })), n)
	ms.set("serve.queue_wait_p50_s", median(col(func(jt jobTrace) time.Duration { return jt.running.Sub(jt.accepted) })), n)
	ms.set("serve.run_p50_s", median(col(func(jt jobTrace) time.Duration { return jt.streamed.Sub(jt.running) })), n)
	ms.set("serve.result_fetch_p50_s", median(col(func(jt jobTrace) time.Duration { return jt.fetched.Sub(jt.streamed) })), n)
	ms.set("serve.events_received", float64(framesGot), n)
	ms.set("serve.events_expected", float64(framesWant), n)
	ms.set("serve.rejected", float64(rejected), 1)
	ms.set("check.failed_share", float64(res.Failed)/float64(res.Attempted), res.Attempted)

	// The same specs on bare Simulations, two at a time as the server ran
	// them: what the jobs cost without admission, persistence and SSE.
	t0 := time.Now()
	replayErrs := make([]error, serveClients)
	for c := range traces {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, jt := range traces[c] {
				if _, err := standalone(jt.body); err != nil {
					replayErrs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range replayErrs {
		if err != nil {
			return runResult{}, err
		}
	}
	bare := time.Since(t0).Seconds()
	ms.set("serve.bare_replay_s", bare, n)
	ms.set("serve.overhead_frac", wall/bare-1, n)

	body := all[0].body
	d, reps, err := timeReps(func() error {
		_, err := serve.DecodeJobRequest(bytes.NewReader(body), serveBudget)
		return err
	})
	if err != nil {
		return runResult{}, err
	}
	ms.set("serve.decode_us", d*1e6, reps)
	setRuntimeMetrics(ms)

	ms.print()
	res.Metrics, err = ms.finish(true)
	return res, err
}

// rejected reads the server's own count of refused submissions.
func (si *serveInstance) rejected() (int64, error) {
	resp, err := si.ts.Client().Get(si.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, err
	}
	return m.JobsRejected, nil
}
