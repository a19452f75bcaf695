package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n) on at most workers
// goroutines (<=0: GOMAXPROCS, clamped to n) and returns when all
// calls have finished. It is the lean fork/join for callers that step
// a fixed set of independent partitions many times, such as the
// world's shards once per epoch: workers claim indices atomically and
// the calling goroutine works too, with no telemetry, results or
// context. A panicking call is converted to an error exactly as Sweep
// converts a panicking job; every index still runs, and ForEach
// returns the error of the lowest failing index.
//
// With one worker ForEach runs inline and allocates nothing, provided
// fn itself is not a fresh closure per call.
func ForEach(workers, n int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := callIndex(fn, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return forEachParallel(workers, n, fn)
}

// forEachParallel is ForEach's multi-worker path, kept separate so
// the variables its goroutines share never escape on the inline path.
func forEachParallel(workers, n int, fn func(i int)) error {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := callIndex(fn, i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}

// callIndex runs fn(i), converting a panic into run i's error.
func callIndex(fn func(i int), i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicErr(i, r)
		}
	}()
	fn(i)
	return nil
}
