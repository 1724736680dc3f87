// Package fixture exercises the fpreduce analyzer: order-dependent
// floating-point accumulation through goroutine captures and
// package-level state. Loaded as repro/internal/pm, a physics package.
package fixture

import "sync"

var runningTotal float64

func intoPackageLevel(xs []float64) {
	for _, x := range xs {
		runningTotal += x // want "float accumulation into package-level runningTotal"
	}
}

func capturedByGoroutine(xs []float64) float64 {
	var sum float64
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x float64) {
			defer wg.Done()
			sum += x // want "float accumulation into sum, captured by a go-launched literal"
		}(x)
	}
	wg.Wait()
	return sum
}

// The x = x + y spelling is the same accumulation.
func capturedSpelledOut(xs []float64) float64 {
	var sum float64
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x float64) {
			defer wg.Done()
			sum = sum + x // want "captured by a go-launched literal"
		}(x)
	}
	wg.Wait()
	return sum
}

// Indexed per-worker slots are the sanctioned idiom: one writer per
// slot, merged deterministically afterwards.
func perWorkerSlots(xs []float64, workers int) float64 {
	partial := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(xs); i += workers {
				partial[w] += xs[i]
			}
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// A local accumulation declared inside the goroutine is per-goroutine
// state, not a capture.
func localInsideGoroutine(xs []float64, out chan<- float64) {
	go func() {
		var local float64
		for _, x := range xs {
			local += x
		}
		out <- local
	}()
}

// Integer accumulation is associative: not fpreduce's business.
func intSum(xs []int) int {
	var wg sync.WaitGroup
	total := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, x := range xs {
			total += x
		}
	}()
	wg.Wait()
	return total
}
