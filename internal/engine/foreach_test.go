package engine

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEveryIndexOnce checks every index runs exactly once
// at any worker count, including GOMAXPROCS (0) and more workers than
// indices.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 97
	for _, workers := range []int{1, 2, 4, 0, 200} {
		hits := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForEachEmpty checks a zero-length fork/join is a no-op.
func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) { t.Fatal("called with n=0") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachPanicBecomesLowestIndexError pins the panic contract
// shared with Sweep: panics become errors, every index still runs,
// and the lowest failing index is reported whatever the schedule.
func TestForEachPanicBecomesLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(workers, 16, func(i int) {
			ran.Add(1)
			if i == 5 || i == 11 {
				panic("boom")
			}
		})
		if err == nil {
			t.Fatalf("workers=%d: panics not reported", workers)
		}
		if msg := err.Error(); !strings.Contains(msg, "engine: run 5 panicked: boom") {
			t.Errorf("workers=%d: want the lowest failing index (5), got %q", workers, msg)
		}
		if got := ran.Load(); got != 16 {
			t.Errorf("workers=%d: %d of 16 indices ran after a panic", workers, got)
		}
	}
}

// TestForEachInlineAllocFree pins the single-worker path: a reused fn
// runs with no allocation, so a caller stepping partitions every epoch
// pays nothing for the fork/join.
func TestForEachInlineAllocFree(t *testing.T) {
	var sum int
	fn := func(i int) { sum += i }
	allocs := testing.AllocsPerRun(100, func() {
		if err := ForEach(1, 8, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("inline ForEach allocates %v per call, want 0", allocs)
	}
}
