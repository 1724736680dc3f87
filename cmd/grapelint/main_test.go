package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the grapelint binary built once in TestMain and shared by
// every exit-code test below.
var binPath string

func TestMain(m *testing.M) {
	if os.Getenv("GRAPELINT_SKIP_BUILD") == "" {
		dir, err := os.MkdirTemp("", "grapelint-test")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		binPath = filepath.Join(dir, "grapelint")
		build := exec.Command("go", "build", "-o", binPath, ".")
		if out, err := build.CombinedOutput(); err != nil {
			panic("building grapelint: " + err.Error() + "\n" + string(out))
		}
	}
	os.Exit(m.Run())
}

// runBin executes the shared binary and returns its exit code plus the
// combined output.
func runBin(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	if binPath == "" {
		t.Skip("binary build skipped via GRAPELINT_SKIP_BUILD")
	}
	cmd := exec.Command(binPath, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("grapelint %v did not run: %v\n%s", args, err, out)
	}
	return exit.ExitCode(), string(out)
}

// writeModule materializes a throwaway module for exit-code tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitCodeFindings: analyzer findings exit 1, distinct from load
// failures, so CI can tell "the code is wrong" from "the tool broke".
func TestExitCodeFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the built binary over a temp module; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.24\n",
		// fpreduce is scoped to the physics/service packages, so the
		// fixture package must live at one of those import paths.
		"internal/pm/pm.go": `package pm

var total float64

func Add(xs []float64) {
	for _, x := range xs {
		total += x
	}
}
`,
	})
	code, out := runBin(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 for findings\n%s", code, out)
	}
	if !strings.Contains(out, "fpreduce") || !strings.Contains(out, "finding(s)") {
		t.Fatalf("findings output missing analyzer name or summary:\n%s", out)
	}
}

// TestExitCodeLoadError: a module that does not compile must exit 2 —
// a finding-shaped exit here would mask a broken build as a lint fail.
func TestExitCodeLoadError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the built binary over a temp module; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"go.mod":  "module repro\n\ngo 1.24\n",
		"main.go": "package main\n\nfunc main() { undefined() }\n",
	})
	code, out := runBin(t, dir, "./...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 for a load error\n%s", code, out)
	}
}

// TestExitCodeClean: a module with nothing to report exits 0.
func TestExitCodeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the built binary over a temp module; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"go.mod":  "module repro\n\ngo 1.24\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	code, out := runBin(t, dir, "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 for a clean module\n%s", code, out)
	}
}

// TestUnusedIgnoresFlag: a stale suppression is invisible by default
// and a finding under -unused-ignores.
func TestUnusedIgnoresFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the built binary over a temp module; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.24\n",
		"internal/pm/pm.go": `package pm

//lint:ignore fpreduce stale: nothing on the next line accumulates
func Clean() int { return 0 }
`,
	})
	if code, out := runBin(t, dir, "./..."); code != 0 {
		t.Fatalf("default run: exit code = %d, want 0\n%s", code, out)
	}
	code, out := runBin(t, dir, "-unused-ignores", "./...")
	if code != 1 {
		t.Fatalf("-unused-ignores: exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "unused-ignores") || !strings.Contains(out, "fpreduce") {
		t.Fatalf("stale-ignore output missing detail:\n%s", out)
	}
}

// TestListDescribesEveryAnalyzer: -list prints one row per analyzer
// with a non-empty doc column.
func TestListDescribesEveryAnalyzer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the built binary; skipped in -short")
	}
	code, out := runBin(t, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exit code = %d, want 0\n%s", code, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("-list printed %d rows, want 8:\n%s", len(lines), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list row without a doc column: %q", line)
		}
	}
	for _, name := range []string{"lockdiscipline", "goroutinejoin", "fpreduce"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out)
		}
	}
}
