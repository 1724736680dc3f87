// Package fixture feeds the stale-suppression detector: one ignore
// that suppresses a real fpreduce finding, one that covers nothing and
// one that names a retired analyzer.
// Loaded as repro/internal/cosmo.
package fixture

var total float64

func add(xs []float64) {
	for _, x := range xs {
		//lint:ignore fpreduce fixture: the accumulation is the point of this test
		total += x
	}
}

//lint:ignore fpreduce stale: suppresses nothing and must be reported
func clean() int {
	return 0
}

// g5contract is a retired analyzer: an ignore naming it can suppress
// nothing, so it must be reported too.
//
//lint:ignore g5contract stale: names an analyzer the suite no longer has
func retired() int {
	return 1
}
