package lint_test

import (
	"go/token"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// testOnlyExports are the exported package-level names under internal/
// that no non-test file of the module references, each with the reason
// it stays. Everything else that only tests reach belongs in a test file.
var testOnlyExports = map[string]string{
	// Test references and test support: the tests check the product
	// against them or drive it through them.
	"repro/internal/hostk.ScalarAccumulate": "the scalar pair loop P2PPair is held to bit for bit",
	"repro/internal/nbody.TwoBody":          "the Kepler orbit the integrator and facade tests check against",
	"repro/internal/integrate.Reverse":      "the velocity flip of the integrator's and the conformance harness's time-reversal checks",
	"repro/internal/units.TimeUnitGyr":      "the time unit in Gyr, the scale of the cosmology tests' age check",
	"repro/internal/ckpt.Read":              "the io.Reader form of ReadFile that the corruption and fuzz tests drive",
	"repro/internal/snapio.Read":            "the io.Reader form of ReadFile that the format and fuzz tests drive",
	"repro/internal/lint/linttest.Run":      "the analyzer fixture harness of lint's external tests",
	// Reached only from the benchmark module (benchmark/), which this
	// loader does not see.
	"repro/internal/integrate.NewLeapfrog": "benchmark/ assembles its step pipeline with it (ROADMAP item 1.2)",
}

// TestEveryExportIsReachedByProduct: every exported package-level
// func, const, var and type under internal/ is referenced from some
// non-test file of the module, or is listed in testOnlyExports.
// Methods and fields are left out: interface satisfaction and encoding
// reach them without naming them.
func TestEveryExportIsReachedByProduct(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := lint.NewLoader(moduleRoot)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	// Each package is checked from source against its imports' export
	// data, so one name is a different object in each package that sees
	// it: match package-level objects by path and name.
	used := map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
				used[obj.Pkg().Path()+"."+obj.Name()] = true
			}
		}
	}
	var unreached []string
	seen := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
			continue
		}
		for _, name := range p.Types.Scope().Names() {
			key := p.Path + "." + name
			if !token.IsExported(name) || used[key] {
				continue
			}
			seen[key] = true
			if _, ok := testOnlyExports[key]; !ok {
				unreached = append(unreached, key)
			}
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s: no non-test file references it; move it into a test file or delete it", key)
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("%s: listed in testOnlyExports but a non-test file references it, or it is gone; drop the entry", key)
		}
	}
}
