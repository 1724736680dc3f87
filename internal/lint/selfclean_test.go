package lint_test

import (
	"os/exec"
	"testing"

	"repro/internal/lint"
)

// moduleRoot is the repository root relative to this package.
const moduleRoot = "../.."

// TestRepoIsLintClean runs the full analyzer suite over the module
// in-process and requires zero findings AND zero stale suppressions:
// every invariant the analyzers encode holds on the tree that defines
// them, and every //lint:ignore in the tree still earns its keep.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := lint.NewLoader(moduleRoot)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, unused, err := lint.RunDetail(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	for _, u := range unused {
		t.Errorf("%s: stale //lint:ignore %s suppresses nothing; delete it",
			loader.Fset.Position(u.Pos), u.Analyzers)
	}
}

// TestGrapelintCommand exercises the command entry point end to end:
// `grapelint ./...` must exit 0 on the repository.
func TestGrapelintCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/grapelint; skipped in -short")
	}
	cmd := exec.Command("go", "run", "./cmd/grapelint", "./...")
	cmd.Dir = moduleRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("grapelint ./... failed: %v\n%s", err, out)
	}
}
