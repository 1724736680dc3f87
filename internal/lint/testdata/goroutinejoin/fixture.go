// Package fixture exercises the goroutinejoin analyzer: every go
// statement needs provable join evidence in its body (or one level into
// in-package callees). Loaded as repro/internal/cosmo, a join-scoped
// physics package.
package fixture

import (
	"context"
	"sync"
)

func leaks(stop chan struct{}) {
	go func() { // want "goroutine has no provable join path"
		for {
			select {
			case <-stop:
			default:
			}
		}
	}()
}

func waitGroupJoin(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// A deferred closure's wg.Done still counts: nested literals are
// scanned.
func nestedDone() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer func() {
			wg.Done()
		}()
	}()
	wg.Wait()
}

func channelSendJoin(out chan int) {
	go func() {
		out <- 1
	}()
}

func channelCloseJoin() <-chan int {
	ch := make(chan int)
	go func() {
		close(ch)
	}()
	return ch
}

func rangeJoin(in <-chan int) {
	go func() {
		for range in {
		}
	}()
}

func contextJoin(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// worker carries its own join evidence, so spawning it by name is fine.
func worker(wg *sync.WaitGroup) {
	defer wg.Done()
}

func namedSpawn() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	wg.Wait()
}

// parkForever has no join evidence of any kind.
func parkForever() {
	select {}
}

func namedLeak() {
	go parkForever() // want "goroutine has no provable join path"
}

// evidence one level into an in-package callee is followed.
func signal(done chan struct{}) {
	close(done)
}

func indirectJoin(done chan struct{}) {
	go func() {
		signal(done)
	}()
}

// A function value is opaque: the analyzer cannot prove a join.
func opaque(f func()) {
	go f() // want "goroutine body is not analyzable"
}
