package lint

// All returns the full analyzer suite in stable order: the per-function
// AST checks first, then the analyzers built on the shared Flow fact
// store and fpreduce.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerNondeterminism,
		AnalyzerObsSpan,
		AnalyzerErrDiscipline,
		AnalyzerLockDiscipline,
		AnalyzerGoroutineJoin,
		AnalyzerFPReduce,
	}
}
