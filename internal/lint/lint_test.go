package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture is type-checked under the import path in the second
// argument so path-scoped analyzers behave exactly as on the real tree.

func TestNondeterminismFixture(t *testing.T) {
	linttest.Run(t, "testdata/nondeterminism", "repro/internal/core", lint.AnalyzerNondeterminism)
}

func TestNondeterminismScopedToPhysicsPackages(t *testing.T) {
	linttest.Run(t, "testdata/nondeterminism_scope", "repro/cmd/fixture", lint.AnalyzerNondeterminism)
}

func TestG5ContractFixture(t *testing.T) {
	linttest.Run(t, "testdata/g5contract", "repro/cmd/fixture", lint.AnalyzerG5Contract)
}

func TestG5FormatFixture(t *testing.T) {
	// repro/internal/pm is a physics package not in internal/g5's
	// import closure, so the fixture path cannot alias a real package
	// the importer loads.
	linttest.Run(t, "testdata/g5format", "repro/internal/pm", lint.AnalyzerG5Format)
}

func TestG5FormatExemptsFormatFiles(t *testing.T) {
	linttest.Run(t, "testdata/g5format_exempt", "repro/internal/g5", lint.AnalyzerG5Format)
}

func TestObsSpanFixture(t *testing.T) {
	linttest.Run(t, "testdata/obsspan", "repro/cmd/fixture", lint.AnalyzerObsSpan)
}

func TestErrDisciplineFixture(t *testing.T) {
	linttest.Run(t, "testdata/errdiscipline", "repro/cmd/fixture", lint.AnalyzerErrDiscipline)
}

func TestLockDisciplineFixture(t *testing.T) {
	// lockdiscipline is not path-scoped; any fixture path works.
	linttest.Run(t, "testdata/lockdiscipline", "repro/cmd/fixture", lint.AnalyzerLockDiscipline)
}

func TestGoroutineJoinFixture(t *testing.T) {
	linttest.Run(t, "testdata/goroutinejoin", "repro/internal/pm", lint.AnalyzerGoroutineJoin)
}

func TestGoroutineJoinScopedToServiceAndPhysics(t *testing.T) {
	linttest.Run(t, "testdata/goroutinejoin_scope", "repro/cmd/fixture", lint.AnalyzerGoroutineJoin)
}

func TestFPReduceFixture(t *testing.T) {
	linttest.Run(t, "testdata/fpreduce", "repro/internal/pm", lint.AnalyzerFPReduce)
}

func TestFPReduceSanctionedHelpers(t *testing.T) {
	// Under the obs import path, Observer.AddSeconds and
	// PhaseSeconds.Add are designated merge points.
	linttest.Run(t, "testdata/fpreduce_sanctioned", "repro/internal/obs", lint.AnalyzerFPReduce)
}
