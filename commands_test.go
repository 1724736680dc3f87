package grape5

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryCommandIsTested: every shipped binary is run by a test. Each
// directory under cmd/ holds a _test.go, and examples/ holds no main
// package — a runnable example is an Example function with a checked
// Output in example_test.go. (Glob errs only on a malformed pattern.)
func TestEveryCommandIsTested(t *testing.T) {
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if tests, _ := filepath.Glob(filepath.Join("cmd", d.Name(), "*_test.go")); d.IsDir() && len(tests) == 0 {
			t.Errorf("cmd/%s has no _test.go", d.Name())
		}
	}

	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			t.Errorf("%s is a main package; write it as an Example in example_test.go", path)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
}
