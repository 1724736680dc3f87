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
