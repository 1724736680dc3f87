package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadFixture type-checks one fixture directory under importPath.
func loadFixture(t *testing.T, loader *lint.Loader, dir, importPath string) *lint.Package {
	t.Helper()
	files, err := loader.ParseFiles(dir, []string{"fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Check(importPath, files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestRunDetailReportsUnusedIgnores: an ignore that suppressed a
// finding is consumed; one that covered nothing, or that names an
// analyzer no longer in the suite, is surfaced.
func TestRunDetailReportsUnusedIgnores(t *testing.T) {
	loader := lint.NewLoader("")
	pkg := loadFixture(t, loader, "testdata/unusedignore", "repro/internal/pm")
	diags, unused, err := lint.RunDetail([]*lint.Package{pkg}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("want 0 surviving diagnostics, got %d: %v", len(diags), diags)
	}
	// The stale comments sit directly above func clean and func retired.
	want := []struct {
		analyzers string
		line      int
	}{{"fpreduce", 16}, {"g5contract", 24}}
	if len(unused) != len(want) {
		t.Fatalf("want %d unused ignores, got %d: %v", len(want), len(unused), unused)
	}
	for i, w := range want {
		pos := loader.Fset.Position(unused[i].Pos)
		if !strings.HasSuffix(pos.Filename, "fixture.go") || unused[i].Analyzers != w.analyzers || pos.Line != w.line {
			t.Errorf("unused ignore %d: %q at %s, want %q at line %d", i, unused[i].Analyzers, pos, w.analyzers, w.line)
		}
	}
}

// TestEveryAnalyzerHasDoc backs `grapelint -list`: an analyzer without
// a one-line doc renders as an empty row.
func TestEveryAnalyzerHasDoc(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	if len(seen) != 6 {
		t.Errorf("expected 6 analyzers in the suite, got %d", len(seen))
	}
}
