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
// finding is consumed; one that covered nothing is surfaced.
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
	if len(unused) != 1 {
		t.Fatalf("want exactly 1 unused ignore, got %d: %v", len(unused), unused)
	}
	pos := loader.Fset.Position(unused[0].Pos)
	if !strings.HasSuffix(pos.Filename, "fixture.go") || unused[0].Analyzers != "fpreduce" {
		t.Fatalf("unexpected unused ignore %q at %s", unused[0].Analyzers, pos)
	}
	// The stale comment sits directly above func clean.
	if pos.Line != 15 {
		t.Fatalf("unused ignore reported at line %d, want 15", pos.Line)
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
	if len(seen) != 8 {
		t.Errorf("expected 8 analyzers in the suite, got %d", len(seen))
	}
}
