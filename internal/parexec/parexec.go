// Package parexec is the parallel experiment engine: a bounded fan-out
// runner plus a concurrency-safe single-flight memo cache. It exists so
// that the many independent, deterministic simulations behind the paper's
// tables and figures (internal/bench, cmd/dfbench) can saturate the host's
// cores without changing any simulated result.
//
// The determinism contract is the load-bearing invariant: every job
// submitted here must be a pure function of its inputs (the simulator in
// internal/simmach guarantees this for interp.Run). Under that contract,
// Map returns results in input order regardless of completion order, and
// Group memoizes exactly one execution per key, so a parallel run of an
// experiment suite produces byte-identical reports to a serial run.
package parexec

import (
	"runtime"
	"sync"
)

// Workers normalizes a worker-count request: n <= 0 selects
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn over every item with at most workers concurrent goroutines
// and returns the results in input order. Collection is order-independent:
// each worker writes only results[i] for the items it claims, so the
// output is identical no matter how the host schedules the workers.
//
// All items are attempted even after a failure; the returned error is the
// one from the lowest-indexed failing item, making the error deterministic
// as well.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	errs := make([]error, len(items))
	if workers <= 1 {
		for i, item := range items {
			results[i], errs[i] = fn(i, item)
		}
		return results, firstError(errs)
	}
	var next int64
	var mu sync.Mutex
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := int(next)
		next++
		return i
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i >= len(items) {
					return
				}
				results[i], errs[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return results, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Group is a concurrency-safe single-flight memo cache: the first caller
// of a key executes the function, concurrent callers of the same key block
// and share the completed result, and later callers hit the cache. Both
// the value and the error are memoized — for deterministic functions a
// retry would fail identically, and caching the error keeps serial and
// parallel suite passes byte-identical.
//
// The zero Group is ready to use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the memoized result for key, computing it with fn exactly
// once across all concurrent and future callers.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()
	f.val, f.err = fn()
	close(f.done)
	return f.val, f.err
}
