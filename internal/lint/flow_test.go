package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// writeFlowFixture materializes one-off sources for Flow fact tests.
func writeFlowFixture(t *testing.T, src string) (*lint.Loader, *lint.Package) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader("")
	files, err := loader.ParseFiles(dir, []string{"fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Check("repro/cmd/fixture", files)
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkg
}

func findFunc(t *testing.T, flow *lint.Flow, name string) *lint.FlowFunc {
	t.Helper()
	for _, fn := range flow.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	t.Fatalf("function %s not found in flow store", name)
	return nil
}

// TestFlowBlockingTransitive: blocking facts propagate through
// in-package call chains and resolve recursion to non-blocking.
func TestFlowBlockingTransitive(t *testing.T) {
	_, pkg := writeFlowFixture(t, `package fixture

import "time"

func nap() { time.Sleep(time.Millisecond) }

func mid() { nap() }

func top() { mid() }

func pure(n int) int {
	if n <= 0 {
		return 0
	}
	return pure(n - 1)
}

func spawner() { go nap() }

func poller(ch chan int) {
	select {
	case <-ch:
	default:
	}
}
`)
	flow := lint.NewFlow(pkg)
	for name, wantBlocks := range map[string]bool{
		"nap": true, "mid": true, "top": true,
		"pure": false, "spawner": false, "poller": false,
	} {
		_, blocks := flow.Blocking(findFunc(t, flow, name))
		if blocks != wantBlocks {
			t.Errorf("Blocking(%s) = %v, want %v", name, blocks, wantBlocks)
		}
	}
	if why, _ := flow.Blocking(findFunc(t, flow, "top")); why == "" {
		t.Error("transitive blocking reason is empty")
	}
}

// TestFlowParentsShared: the parent map is built once per file and the
// same map is handed back on reuse.
func TestFlowParentsShared(t *testing.T) {
	_, pkg := writeFlowFixture(t, `package fixture

func f() {}
`)
	flow := lint.NewFlow(pkg)
	p1 := flow.Parents(pkg.Files[0])
	p2 := flow.Parents(pkg.Files[0])
	if len(p1) == 0 {
		t.Fatal("empty parents map")
	}
	// Mutating one must show in the other iff it is the same map.
	sentinel := pkg.Files[0]
	p1[sentinel.Name] = sentinel
	if _, ok := p2[sentinel.Name]; !ok {
		t.Fatal("Parents rebuilt the map instead of caching it")
	}
	delete(p1, sentinel.Name)
}
