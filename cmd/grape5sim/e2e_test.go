package main

// End-to-end crash/resume tests: these drive the real binary through
// os/exec — kill it mid-run, rerun it, and demand the final state be
// bitwise identical to an uninterrupted run. This is the enforcement of
// the checkpoint layer's core guarantee at the process level, where the
// unit tests cannot reach (signals, exit codes, torn files on a real
// filesystem).

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ckpt"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binPath builds the grape5sim binary once per test run.
func binPath(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "grape5sim-e2e-")
		if buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, "grape5sim"), ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building grape5sim: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "grape5sim")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// run executes the binary with args, returning combined output and the
// exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// baseArgs is a small deterministic host-engine run: big enough to be a
// real treecode problem, small enough for CI.
func baseArgs(dir string, steps int, extra ...string) []string {
	args := []string{"-model", "plummer", "-n", "400", "-steps", fmt.Sprint(steps),
		"-engine", "host", "-report", "0",
		"-snap", filepath.Join(dir, "final.g5"),
		"-log", filepath.Join(dir, "steps.csv")}
	return append(args, extra...)
}

// physicsColumns strips the wall-clock timing columns from the step log,
// leaving only deterministic physics (step, time, groups, interactions,
// avg list, energies).
func physicsColumns(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(bytes.NewReader(data))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range rows {
		phys := append(append([]string{}, row[:5]...), row[8:]...)
		b.WriteString(strings.Join(phys, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceRun performs the uninterrupted run and returns its final
// snapshot bytes and physics log.
func referenceRun(t *testing.T, bin string, steps int) ([]byte, string) {
	t.Helper()
	dir := t.TempDir()
	if out, code := run(t, bin, baseArgs(dir, steps)...); code != 0 {
		t.Fatalf("reference run exited %d:\n%s", code, out)
	}
	return mustReadFile(t, filepath.Join(dir, "final.g5")),
		physicsColumns(t, filepath.Join(dir, "steps.csv"))
}

// TestE2EKillResumeBitwise kills the run mid-flight with the seeded
// crash injector, reruns it against the same checkpoint directory, and
// requires the final snapshot — and every physics column of the step
// log — to equal the uninterrupted run exactly.
func TestE2EKillResumeBitwise(t *testing.T) {
	bin := binPath(t)
	refSnap, refLog := referenceRun(t, bin, 12)

	dir := t.TempDir()
	args := baseArgs(dir, 12, "-ckpt-dir", filepath.Join(dir, "ckpt"), "-ckpt-every", "4")
	out, code := run(t, bin, append(args, "-crash-at-step", "6")...)
	if code != 3 {
		t.Fatalf("crash run exited %d, want 3:\n%s", code, out)
	}
	if !strings.Contains(out, "crash: injected kill") {
		t.Fatalf("crash marker missing:\n%s", out)
	}
	out, code = run(t, bin, args...)
	if code != 0 {
		t.Fatalf("resume run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "resuming from") {
		t.Fatalf("resume run did not auto-resume:\n%s", out)
	}
	if got := mustReadFile(t, filepath.Join(dir, "final.g5")); !bytes.Equal(got, refSnap) {
		t.Error("final snapshot differs from uninterrupted run — resume is not bitwise deterministic")
	}
	if got := physicsColumns(t, filepath.Join(dir, "steps.csv")); got != refLog {
		t.Errorf("step log physics differ from uninterrupted run:\n got:\n%s\nwant:\n%s", got, refLog)
	}
}

// TestE2ETornCheckpointFallback tears the newest checkpoint (simulating
// the torn write that atomic rename normally prevents) and requires the
// rerun to fall back to the previous generation — and still land
// bitwise on the reference trajectory.
func TestE2ETornCheckpointFallback(t *testing.T) {
	bin := binPath(t)
	refSnap, _ := referenceRun(t, bin, 12)

	dir := t.TempDir()
	args := baseArgs(dir, 12, "-ckpt-dir", filepath.Join(dir, "ckpt"), "-ckpt-every", "4")
	out, code := run(t, bin, append(args, "-crash-at-step", "6", "-crash-mode", "torn-ckpt")...)
	if code != 3 || !strings.Contains(out, "crash: tore checkpoint") {
		t.Fatalf("torn-ckpt run exited %d:\n%s", code, out)
	}
	out, code = run(t, bin, args...)
	if code != 0 {
		t.Fatalf("resume after torn checkpoint exited %d:\n%s", code, out)
	}
	// Step 6's checkpoint is torn; the fallback generation is step 4.
	if !strings.Contains(out, "ckpt-000000000004.g5ck (step 4") {
		t.Fatalf("did not fall back to the step-4 generation:\n%s", out)
	}
	if got := mustReadFile(t, filepath.Join(dir, "final.g5")); !bytes.Equal(got, refSnap) {
		t.Error("final snapshot differs after torn-checkpoint fallback")
	}
}

// TestE2EGracefulSIGINT interrupts a running simulation and requires a
// clean exit 0 with a final checkpoint on disk — and that a rerun picks
// up from it and matches the reference bitwise.
func TestE2EGracefulSIGINT(t *testing.T) {
	bin := binPath(t)
	// Longer run than the other tests: the signal must land while the
	// stepping loop still has plenty of runway.
	const steps = 60
	refSnap, _ := referenceRun(t, bin, steps)

	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	args := baseArgs(dir, steps, "-ckpt-dir", ckptDir, "-ckpt-every", "1")
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Signal as soon as the first checkpoint line confirms the run is in
	// its stepping loop.
	var tail []string
	sc := bufio.NewScanner(stdout)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		tail = append(tail, line)
		if !signalled && strings.Contains(line, "ckpt: wrote") {
			signalled = true
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("never saw a checkpoint line:\n%s\n%s", strings.Join(tail, "\n"), errBuf.String())
	}
	if err != nil {
		t.Fatalf("SIGINT run did not exit 0: %v\n%s\n%s", err, strings.Join(tail, "\n"), errBuf.String())
	}
	joined := strings.Join(tail, "\n")
	if !strings.Contains(joined, "interrupted: state saved") {
		t.Fatalf("graceful-shutdown marker missing:\n%s", joined)
	}
	// The interrupted run must be resumable to the bitwise reference.
	if out, code := run(t, bin, args...); code != 0 {
		t.Fatalf("resume after SIGINT exited %d:\n%s", code, out)
	}
	if got := mustReadFile(t, filepath.Join(dir, "final.g5")); !bytes.Equal(got, refSnap) {
		t.Error("final snapshot differs after SIGINT + resume")
	}
}

// TestE2EResumeRefusals: ambiguity and corruption must stop the run,
// never silently restart physics.
func TestE2EResumeRefusals(t *testing.T) {
	bin := binPath(t)
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	args := baseArgs(dir, 12, "-ckpt-dir", ckptDir, "-ckpt-every", "4")
	if out, code := run(t, bin, args...); code != 0 {
		t.Fatalf("seed run exited %d:\n%s", code, out)
	}

	// Valid store + -resume file: ambiguous.
	out, code := run(t, bin, append(args, "-resume", filepath.Join(dir, "final.g5"))...)
	if code == 0 || !strings.Contains(out, "ambiguous resume") {
		t.Errorf("ambiguous resume not refused (exit %d):\n%s", code, out)
	}

	// Every generation corrupted: loud failure, not a fresh start.
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".g5ck") {
			if err := os.WriteFile(filepath.Join(ckptDir, e.Name()), []byte("rot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	out, code = run(t, bin, args...)
	if code == 0 || !strings.Contains(out, "refusing to silently restart") {
		t.Errorf("all-corrupt store not refused (exit %d):\n%s", code, out)
	}

	// A conflicting explicit flag on resume must be refused.
	dir2 := t.TempDir()
	args2 := baseArgs(dir2, 12, "-ckpt-dir", filepath.Join(dir2, "ckpt"), "-ckpt-every", "4", "-crash-at-step", "6")
	if _, code := run(t, bin, args2...); code != 3 {
		t.Fatalf("crash run exited %d, want 3", code)
	}
	out, code = run(t, bin, append(baseArgs(dir2, 12, "-ckpt-dir", filepath.Join(dir2, "ckpt")), "-theta", "0.9")...)
	if code == 0 || !strings.Contains(out, "theta") {
		t.Errorf("conflicting -theta on resume not refused (exit %d):\n%s", code, out)
	}

	// A checkpoint of the retired particle-mesh engine (kind 2) gets the
	// library's particle-mesh refusal, with -engine given or not.
	gens, err := filepath.Glob(filepath.Join(dir2, "ckpt", "*.g5ck"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("no checkpoint to rewrite (%v)", err)
	}
	c, err := ckpt.ReadFile(gens[0])
	if err != nil {
		t.Fatal(err)
	}
	c.State.Engine = 2
	pmFile := filepath.Join(dir2, "pm.g5ck")
	if _, err := ckpt.WriteFile(pmFile, c); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-engine", "grape5"}} {
		args := append([]string{"-resume", pmFile, "-steps", "12", "-report", "0"}, extra...)
		out, code := run(t, bin, args...)
		if code == 0 || !strings.Contains(out, "particle-mesh") {
			t.Errorf("%v: particle-mesh checkpoint not refused as such (exit %d):\n%s", extra, code, out)
		}
	}
}

// TestE2EConfigRefusals: a configuration grape5.Config.Validate rejects
// stops the run before its first force call, on a fresh start and on a
// -ckpt-dir resume alike — it is the library constructor that refuses,
// not a check only one path of the driver remembers to make.
func TestE2EConfigRefusals(t *testing.T) {
	bin := binPath(t)
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	crash := baseArgs(dir, 12, "-ckpt-dir", ckptDir, "-ckpt-every", "4", "-crash-at-step", "6")
	if out, code := run(t, bin, crash...); code != 3 {
		t.Fatalf("crash run exited %d, want 3:\n%s", code, out)
	}
	resume := baseArgs(dir, 12, "-ckpt-dir", ckptDir)
	for _, tc := range []struct {
		name, want string
		flags      []string
	}{
		{"theta nan", "theta", []string{"-theta", "nan"}},
		{"boards on the host engine", "needs the grape5 engine", []string{"-boards", "2", "-engine", "host"}},
		{"negative boards", "shards", []string{"-boards", "-1"}},
	} {
		for path, args := range map[string][]string{
			"fresh":  append(baseArgs(t.TempDir(), 12), tc.flags...),
			"resume": append(append([]string{}, resume...), tc.flags...),
		} {
			out, code := run(t, bin, args...)
			if code == 0 || !strings.Contains(out, tc.want) || strings.Contains(out, "initial energy") {
				t.Errorf("%s, %s: not refused before the first step (exit %d, want mention of %q):\n%s",
					tc.name, path, code, tc.want, out)
			}
		}
	}
	// The refusals left the store alone: the plain resume still finishes.
	if out, code := run(t, bin, resume...); code != 0 {
		t.Errorf("resume after the refusals exited %d:\n%s", code, out)
	}
}

// TestE2EGuardedReport: a guarded single-board run reports one board
// system, with no cluster block; -boards 2 adds the block, one line per
// shard. An unguarded run reports no recovery at all, and a hardware
// error ends it through log.Fatal, not a panic.
func TestE2EGuardedReport(t *testing.T) {
	bin := binPath(t)
	common := []string{"-model", "plummer", "-n", "400", "-steps", "2", "-ncrit", "64",
		"-engine", "grape5", "-report", "0"}
	out, code := run(t, bin, common...)
	if code != 0 {
		t.Fatalf("unguarded run exited %d:\n%s", code, out)
	}
	for _, line := range []string{"recovery:", "boards in service", "cluster:"} {
		if strings.Contains(out, line) {
			t.Errorf("unguarded run reports %q:\n%s", line, out)
		}
	}
	out, code = run(t, bin, append(common, "-fault-transient", "0.2")...)
	if code != 1 || !strings.Contains(out, "transient compute timeout failure") || strings.Contains(out, "goroutine ") {
		t.Errorf("unguarded run on failing hardware exited %d, want 1 naming the hardware error without a stack dump:\n%s", code, out)
	}
	out, code = run(t, bin, append(common, "-guard")...)
	if code != 0 {
		t.Fatalf("guarded run exited %d:\n%s", code, out)
	}
	if strings.Contains(out, "cluster:") || !strings.Contains(out, "boards in service: 2 of 2\n") {
		t.Errorf("guarded single-board run should report one 2-board system and no cluster:\n%s", out)
	}
	out, code = run(t, bin, append(common, "-boards", "2")...)
	if code != 0 {
		t.Fatalf("2-shard run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "cluster: K=2 shards") || !strings.Contains(out, "  shard 1: ") {
		t.Errorf("2-shard run lacks its cluster block:\n%s", out)
	}
}

// TestE2ECompletedRunIsIdempotent: rerunning a finished run must do no
// physics and exit 0 (the supervisor relies on this to terminate).
func TestE2ECompletedRunIsIdempotent(t *testing.T) {
	bin := binPath(t)
	dir := t.TempDir()
	args := baseArgs(dir, 12, "-ckpt-dir", filepath.Join(dir, "ckpt"), "-ckpt-every", "4")
	if out, code := run(t, bin, args...); code != 0 {
		t.Fatalf("first run exited %d:\n%s", code, out)
	}
	first := mustReadFile(t, filepath.Join(dir, "final.g5"))
	start := time.Now()
	out, code := run(t, bin, args...)
	if code != 0 || !strings.Contains(out, "nothing to do") {
		t.Fatalf("rerun of completed run (exit %d, %v):\n%s", code, time.Since(start), out)
	}
	if got := mustReadFile(t, filepath.Join(dir, "final.g5")); !bytes.Equal(got, first) {
		t.Error("idempotent rerun changed the final snapshot")
	}
}

// crashResumeBitwise is the kill/resume harness shared by the
// scheduling-mode tests: reference run, crash at local step 6 with
// checkpoints every 4, auto-resume, then bitwise comparison of the
// final snapshot and every physics column of the step log.
func crashResumeBitwise(t *testing.T, extra ...string) {
	t.Helper()
	bin := binPath(t)
	refDir := t.TempDir()
	if out, code := run(t, bin, baseArgs(refDir, 12, extra...)...); code != 0 {
		t.Fatalf("reference run exited %d:\n%s", code, out)
	}
	refSnap := mustReadFile(t, filepath.Join(refDir, "final.g5"))
	refLog := physicsColumns(t, filepath.Join(refDir, "steps.csv"))

	dir := t.TempDir()
	args := baseArgs(dir, 12, append([]string{"-ckpt-dir", filepath.Join(dir, "ckpt"), "-ckpt-every", "4"}, extra...)...)
	out, code := run(t, bin, append(args, "-crash-at-step", "6")...)
	if code != 3 || !strings.Contains(out, "crash: injected kill") {
		t.Fatalf("crash run exited %d, want 3:\n%s", code, out)
	}
	out, code = run(t, bin, args...)
	if code != 0 {
		t.Fatalf("resume run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "resuming from") {
		t.Fatalf("resume run did not auto-resume:\n%s", out)
	}
	if got := mustReadFile(t, filepath.Join(dir, "final.g5")); !bytes.Equal(got, refSnap) {
		t.Error("final snapshot differs from uninterrupted run — resume is not bitwise deterministic")
	}
	if got := physicsColumns(t, filepath.Join(dir, "steps.csv")); got != refLog {
		t.Errorf("step log physics differ from uninterrupted run:\n got:\n%s\nwant:\n%s", got, refLog)
	}
}

// TestE2EKillResumeAdaptiveBitwise: the shared adaptive-dt integrator
// through the kill/resume gauntlet. The next dt is a pure function of
// the restored accelerations, so a correctly restored checkpoint must
// reproduce the uninterrupted trajectory exactly.
func TestE2EKillResumeAdaptiveBitwise(t *testing.T) {
	crashResumeBitwise(t, "-eta", "0.25", "-dtmin", "0.001")
}

// TestE2EKillResumeBlocksBitwise: hierarchical block timesteps through
// the kill/resume gauntlet, with a group size small enough that
// partially-active groups exercise the gather/scatter walk path. The
// version-2 RUNG checkpoint section must restore the rungs, the block
// clock and the cached-tree schedule exactly.
func TestE2EKillResumeBlocksBitwise(t *testing.T) {
	crashResumeBitwise(t, "-blocks", "4", "-dtmin", "0.000625", "-eta", "0.1", "-ncrit", "32")
}
