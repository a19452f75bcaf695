// Package engine runs batches of independent experiment jobs on a
// bounded work-stealing worker pool, with per-run telemetry and
// streaming, index-ordered result emission.
//
// The discrete-event kernel (internal/sim) is single-goroutine by
// contract; all parallelism in the system lives here, one level up,
// across runs that share no state. The engine synchronises only on run
// boundaries — a worker owns a run from start to finish and publishes
// its outcome keyed by job index — so results are identical to serial
// execution regardless of worker count or steal order. Everything the
// engine emits (Report.Results, the JSONL sink, OnResult callbacks)
// is delivered in index order for the same reason: sweep output must
// be a pure function of the job list, never of goroutine scheduling.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Policy selects how a sweep reacts to a failing job.
type Policy int

const (
	// CollectAll runs every job regardless of failures; Report.Err is
	// the error of the lowest-indexed failing run. This is the
	// deterministic default: which error is reported does not depend
	// on goroutine scheduling.
	CollectAll Policy = iota
	// FailFast cancels outstanding jobs after the first observed
	// failure. Jobs already running complete; jobs not yet started are
	// marked with the cancellation error. Faster on broken sweeps, but
	// which jobs actually ran is schedule-dependent.
	FailFast
)

// Job computes one run. The context is the sweep context: the engine
// checks it on every run boundary, so long job lists stop promptly on
// cancellation even when jobs themselves ignore it.
type Job[T any] func(ctx context.Context) (T, error)

// Config configures one sweep.
type Config[T any] struct {
	// Workers bounds parallelism (<=0: GOMAXPROCS, clamped to the job
	// count).
	Workers int
	// Policy is the error policy (default CollectAll).
	Policy Policy
	// Results, when non-nil, receives one JSON line per run in index
	// order ({"index":i,"result":...} or {"index":i,"error":"..."}).
	// Because emission is index-ordered and result encoding is
	// deterministic, the stream is byte-identical at any worker count.
	Results io.Writer
	// DiscardResults drops run results from Report.Results once they
	// have been streamed to Results/OnResult, so arbitrarily long
	// sweeps hold only the out-of-order window in memory.
	DiscardResults bool
	// OnResult, when non-nil, observes each successful run in index
	// order. A non-nil return is recorded as Report.SinkErr and stops
	// further sink deliveries (the sweep itself still completes).
	OnResult func(index int, value T) error
	// EventsOf extracts the number of simulation events a successful
	// run processed, feeding the events/sec telemetry.
	EventsOf func(T) uint64
	// CountersOf extracts a successful run's observability counters
	// (e.g. scenario Result.Obs.Counters); the engine sums them across
	// runs into Telemetry.Counters. Deterministic: summation happens on
	// the collector goroutine in index order, and the per-run maps are
	// themselves deterministic for deterministic jobs.
	CountersOf func(T) map[string]uint64
}

// Report is the outcome of a sweep.
type Report[T any] struct {
	// Results is index-aligned with the job list (nil when
	// Config.DiscardResults). Failed runs leave their slot at the
	// zero value.
	Results []T
	// Stats is per-run telemetry, index-aligned.
	Stats []RunStat
	// Errors is index-aligned per-run errors (nil entries: success).
	Errors []error
	// Err is the lowest-indexed run error, preferring real job
	// failures over cancellation markers; nil when every run
	// succeeded. ErrIndex is its index (-1 when Err is nil).
	Err      error
	ErrIndex int
	// SinkErr is the first Results/OnResult delivery failure.
	SinkErr error
	// Telemetry aggregates the sweep.
	Telemetry Telemetry
}

// outcome is one run's result in flight from a worker to the collector.
type outcome[T any] struct {
	index    int
	value    T
	err      error
	executed bool
	wallNS   int64
	events   uint64
}

// Sweep executes every job and returns the full report. It never
// panics on a panicking job: panics are converted to that run's error.
// The caller goroutine acts as the collector, so Results/OnResult are
// invoked on it, in index order, while workers run.
func Sweep[T any](ctx context.Context, jobs []Job[T], cfg Config[T]) *Report[T] {
	n := len(jobs)
	rep := &Report[T]{
		Stats:    make([]RunStat, n),
		Errors:   make([]error, n),
		ErrIndex: -1,
	}
	if !cfg.DiscardResults {
		rep.Results = make([]T, n)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	rep.Telemetry.Runs = n
	rep.Telemetry.Workers = workers
	if n == 0 {
		return rep
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()

	queues := splitIndices(n, workers)
	done := make(chan outcome[T], n)
	var steals atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				i, ok := queues[self].pop()
				if !ok {
					i, ok = stealFrom(queues, self)
					if !ok {
						return
					}
					steals.Add(1)
				}
				done <- runOne(runCtx, jobs[i], i, &cfg, cancel)
			}
		}(w)
	}

	em := newEmitter(rep, &cfg)
	for received := 0; received < n; received++ {
		em.add(<-done)
	}
	wg.Wait()

	wall := now().Sub(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.Telemetry.Steals = steals.Load()
	finishTelemetry(&rep.Telemetry, rep.Stats, wall, &before, &after)
	em.resolveErr()
	return rep
}

// runOne executes a single job with cancellation check, panic
// recovery, and wall-time / event accounting.
func runOne[T any](ctx context.Context, job Job[T], i int, cfg *Config[T], cancel func()) (oc outcome[T]) {
	oc.index = i
	if err := ctx.Err(); err != nil {
		oc.err = err
		return oc
	}
	oc.executed = true
	t0 := now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				oc.err = panicErr(i, r)
			}
		}()
		oc.value, oc.err = job(ctx)
	}()
	oc.wallNS = now().Sub(t0).Nanoseconds()
	if oc.err == nil && cfg.EventsOf != nil {
		oc.events = cfg.EventsOf(oc.value)
	}
	if oc.err != nil && cfg.Policy == FailFast {
		cancel()
	}
	return oc
}

// panicErr converts a panic recovered from run i into that run's
// error, stack included.
func panicErr(i int, r any) error {
	return fmt.Errorf("engine: run %d panicked: %v\n%s", i, r, debug.Stack())
}

// cancellation reports whether err marks a run the engine skipped
// because the sweep context was cancelled, as opposed to a job that
// ran and failed.
func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stealQueue is a mutex-guarded deque of job indices. The owning
// worker pops oldest-first from the front so low indices complete
// early (keeping the index-ordered emission buffer small); thieves
// steal newest-first from the back, minimising contention with the
// owner.
type stealQueue struct {
	mu  sync.Mutex
	idx []int
}

func (q *stealQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.idx) == 0 {
		return 0, false
	}
	i := q.idx[0]
	q.idx = q.idx[1:]
	return i, true
}

func (q *stealQueue) steal() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.idx) == 0 {
		return 0, false
	}
	last := len(q.idx) - 1
	i := q.idx[last]
	q.idx = q.idx[:last]
	return i, true
}

// splitIndices deals job indices round-robin across workers, so every
// worker's first jobs are low indices and emission drains steadily.
func splitIndices(n, workers int) []*stealQueue {
	qs := make([]*stealQueue, workers)
	for w := range qs {
		qs[w] = &stealQueue{}
	}
	for i := 0; i < n; i++ {
		q := qs[i%workers]
		q.idx = append(q.idx, i)
	}
	return qs
}

// stealFrom scans the other workers' queues in a fixed rotation
// starting after self.
func stealFrom(qs []*stealQueue, self int) (int, bool) {
	for k := 1; k < len(qs); k++ {
		if i, ok := qs[(self+k)%len(qs)].steal(); ok {
			return i, true
		}
	}
	return 0, false
}
