package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// TestLoadMissingPackage: a pattern matching nothing must surface a
// loader error, not an empty silent run (the drivers map this to exit
// code 2).
func TestLoadMissingPackage(t *testing.T) {
	loader := lint.NewLoader("")
	if _, err := loader.Load("repro/internal/nosuchpackage"); err == nil {
		t.Fatal("Load of a missing package succeeded")
	}
}

// TestLoadCompileError: a package that does not type-check must fail
// loading with a diagnostic, not reach the analyzers half-checked.
func TestLoadCompileError(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module broken\n\ngo 1.24\n")
	write("main.go", "package main\n\nfunc main() { undefined() }\n")
	loader := lint.NewLoader(dir)
	if _, err := loader.Load("./..."); err == nil {
		t.Fatal("Load of a non-compiling module succeeded")
	}
}

// TestCheckTypeError: the direct Check path (used by the fixture
// harness) reports type errors too.
func TestCheckTypeError(t *testing.T) {
	dir := t.TempDir()
	src := "package fixture\n\nvar x int = \"not an int\"\n"
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader("")
	files, err := loader.ParseFiles(dir, []string{"fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Check("repro/cmd/fixture", files); err == nil {
		t.Fatal("Check of a type-broken file succeeded")
	}
}

// TestParseFilesSyntaxError: unparsable source fails at the parse
// stage with a position.
func TestParseFilesSyntaxError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte("package fixture\n\nfunc {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader("")
	if _, err := loader.ParseFiles(dir, []string{"fixture.go"}); err == nil {
		t.Fatal("ParseFiles of broken syntax succeeded")
	}
}
