// Package goroutinelife is the fixture for the goroutinelife analyzer.
package goroutinelife

import (
	"context"
	"sync"
)

// The canonical Add / go / defer-Done shape.
func waitGroupOK(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// Done without a preceding Add: the Add after the spawn races the
// Wait, so the pairing must be in program order.
func addAfterBad() {
	var wg sync.WaitGroup
	go func() { // want `goroutine calls Done\(\) but the spawning body has no matching Add\(\) before the go statement`
		defer wg.Done()
	}()
	wg.Add(1)
	wg.Wait()
}

func bareBad() {
	go func() { // want `leak-shaped spawn`
	}()
}

// A context reaching the body means cancellation reaches the goroutine.
func ctxOK(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// A context-typed spawn argument counts even for a named function.
func ctxArgOK(ctx context.Context) {
	go worker(ctx)
}

func worker(ctx context.Context) {
	<-ctx.Done()
}

// A named spawn resolves through the call graph to its declaration.
func namedOK() {
	var wg sync.WaitGroup
	wg.Add(1)
	go drain(&wg)
	wg.Wait()
}

func drain(wg *sync.WaitGroup) {
	defer wg.Done()
}

// A joiner goroutine is bounded by the workers it collects.
func joinerOK(done chan struct{}) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	go func() {
		wg.Wait()
		close(done)
	}()
}

// A function value cannot be resolved statically.
func dynamicBad(f func()) {
	go f() // want `cannot resolve the spawned function statically`
}
