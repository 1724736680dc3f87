package main

// Daemon-level end-to-end tests through os/exec: SIGKILL simd mid-job,
// restart it on the same data directory, and demand the revived job's
// final result be byte-for-byte the uninterrupted run's. This enforces
// the service's crash contract where unit tests cannot reach — real
// signals, real process death, real files.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/serve"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binPath builds the simd binary once per test run.
func binPath(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "simd-e2e-")
		if buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, "simd"), ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building simd: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "simd")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// daemon is one running simd process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon launches simd against dir and parses the bound address
// from its first stdout line.
func startDaemon(t *testing.T, dir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dir, "-ckpt-every", "2", "-max-running", "1"}, extra...)
	cmd := exec.Command(binPath(t), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		_ = cmd.Process.Kill()
		t.Fatalf("simd produced no output (scan err %v)", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	if !strings.HasPrefix(line, marker) {
		_ = cmd.Process.Kill()
		t.Fatalf("unexpected first line %q", line)
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return &daemon{cmd: cmd, url: strings.TrimPrefix(line, marker)}
}

// submit posts a job and returns its id.
func (d *daemon) submit(t *testing.T, body string) string {
	t.Helper()
	resp, err := http.Post(d.url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// status fetches one job's status.
func (d *daemon) status(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitStep polls until the job has completed at least n steps.
func (d *daemon) waitStep(t *testing.T, id string, n int64, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := d.status(t, id)
		if st.Step >= n || st.State == serve.StateDone || st.State == serve.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s at step %d (%s) after %v, want >= %d", id, st.Step, st.State, timeout, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDone polls until the job is terminal.
func (d *daemon) waitDone(t *testing.T, id string, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := d.status(t, id)
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

// result fetches a done job's result bytes.
func (d *daemon) result(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, %v: %s", resp.StatusCode, err, data)
	}
	return data
}

// referenceResult runs the job spec uninterrupted through the
// Simulation API and marshals the final state the way the server does.
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

// jobBody is a host-engine run big enough that the kill lands mid-run
// on any machine, small enough for CI.
const jobBody = `{"tenant":"alice","model":"plummer","n":3000,"steps":40}`

// TestE2EKillResumeBitwise: SIGKILL the daemon mid-job; a restarted
// daemon must revive the job from its checkpoint and finish with the
// exact bytes of an uninterrupted run.
func TestE2EKillResumeBitwise(t *testing.T) {
	ref := referenceResult(t, jobBody)
	dir := t.TempDir()

	d := startDaemon(t, dir)
	id := d.submit(t, jobBody)
	st := d.waitStep(t, id, 10, 60*time.Second)
	if st.State == serve.StateDone {
		t.Fatal("job finished before the kill could land; grow the job")
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err == nil {
		t.Fatal("SIGKILLed daemon exited cleanly?")
	}

	d2 := startDaemon(t, dir)
	defer func() {
		_ = d2.cmd.Process.Kill()
		_ = d2.cmd.Wait()
	}()
	st = d2.waitDone(t, id, 120*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("revived job finished %s: %s", st.State, st.Error)
	}
	if st.ResumedFrom <= 0 {
		t.Errorf("resumed_from = %d, want a positive checkpoint step (did it restart from scratch?)", st.ResumedFrom)
	}
	if got := d2.result(t, id); !bytes.Equal(got, ref) {
		t.Errorf("post-crash result differs from uninterrupted run (%d vs %d bytes) — daemon resume is not bitwise deterministic",
			len(got), len(ref))
	}
}

// TestE2EGracefulDrainResume: SIGTERM must checkpoint the running job
// and exit 0; the restarted daemon completes it to the bitwise
// reference.
func TestE2EGracefulDrainResume(t *testing.T) {
	ref := referenceResult(t, jobBody)
	dir := t.TempDir()

	d := startDaemon(t, dir)
	id := d.submit(t, jobBody)
	st := d.waitStep(t, id, 5, 60*time.Second)
	if st.State == serve.StateDone {
		t.Fatal("job finished before the signal could land; grow the job")
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain did not exit 0: %v", err)
	}

	d2 := startDaemon(t, dir)
	defer func() {
		_ = d2.cmd.Process.Kill()
		_ = d2.cmd.Wait()
	}()
	st = d2.waitDone(t, id, 120*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("drained job finished %s: %s", st.State, st.Error)
	}
	if got := d2.result(t, id); !bytes.Equal(got, ref) {
		t.Error("post-drain result differs from uninterrupted run")
	}
}
