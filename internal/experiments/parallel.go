// Parallel sweep execution: every serving sweep in this package is a
// grid of independent simulation cells — one serve.RunWorkload call per
// (config, workload, seed) tuple — whose only coupling is the order
// their aggregates appear in the output table. pmap runs those cells on
// a bounded worker pool and hands the results back in grid order, so a
// sweep's rendered table is byte-identical to the sequential loops it
// replaced: each cell is a self-contained simulation (own sim engine,
// own cluster, own RNGs seeded from the cell's seed), and aggregation
// stays sequential over the indexed result slice.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxParallel bounds how many simulation cells run concurrently across
// a sweep: 0 (the default) uses GOMAXPROCS workers, 1 forces the
// sequential order cells were scheduled in, any other positive value is
// an explicit cap. It is read once per pmap call; tests flip it to
// compare parallel against sequential output.
var MaxParallel = 0

// workers resolves MaxParallel against the cell count n.
func workers(n int) int {
	w := MaxParallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// pmap evaluates f(0) … f(n-1) on a bounded worker pool and returns the
// results indexed by argument — deterministic assembly regardless of
// completion order. With one worker it degenerates to a plain loop. A
// panic inside f is re-raised on the calling goroutine after the pool
// drains, so sweep cells keep their fail-fast behaviour under
// parallelism.
func pmap[T any](n int, f func(int) T) []T {
	out := make([]T, n)
	if w := workers(n); w > 1 {
		var (
			next     atomic.Int64
			wg       sync.WaitGroup
			panicMu  sync.Mutex
			panicked any
		)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if panicked == nil {
							panicked = r
						}
						panicMu.Unlock()
					}
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i] = f(i)
				}
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
		return out
	}
	for i := range out {
		out[i] = f(i)
	}
	return out
}
