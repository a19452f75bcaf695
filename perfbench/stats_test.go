package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64 // cap
		q, val float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly 10 samples beyond p99
		{999, 0.99, 0.9, 900},   // 9 beyond p99: fall back to p90
		{10000, 0.999, 0.999, 9990},
		{10000, 0.99, 0.99, 9900}, // never above the percentile asked for
		{20, 1, 0.5, 10},
		{19, 1, 0, 19}, // too few for any percentile: the maximum
	} {
		got := summarize(seq(tc.n), tc.want)
		if got.N != tc.n || got.Q != tc.q || got.Value != tc.val || got.Max != float64(tc.n) {
			t.Errorf("summarize(1..%d, %g) = %+v, want N=%d Q=%g Value=%g", tc.n, tc.want, got, tc.n, tc.q, tc.val)
		}
		if got.N-rank(got.N, got.Q) < 10 && got.Q != 0 {
			t.Errorf("n=%d: p%g has fewer than ten samples beyond it", tc.n, got.Q*100)
		}
	}
	if got := summarize(seq(1000), 0.99).String(); got != "p50 500.000, p99 990.000, max 1000.000 (n=1000)" {
		t.Errorf("String() = %q: the summary must state the percentile and the sample count", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestFailedRequestsMissTheLatencyLimit pins that a refused (429) or
// failed request never counts as goodput and sorts as infinitely late,
// however fast it came back.
func TestFailedRequestsMissTheLatencyLimit(t *testing.T) {
	out := []outcome{
		{latency: time.Millisecond, status: 200},
		{latency: time.Millisecond, status: http.StatusTooManyRequests},
		{latency: time.Millisecond, status: 500},
		{latency: time.Millisecond, err: errors.New("connection reset")},
		{latency: 2 * latencyLimit, status: 200},
	}
	all := func(*outcome) bool { return true }
	if got := goodput(out, all, latencyLimit); got != 1 {
		t.Errorf("goodput = %d, want 1 (only the fast 200)", got)
	}
	if got := goodput(out, func(*outcome) bool { return false }, latencyLimit); got != 0 {
		t.Errorf("goodput = %d with every body wrong, want 0", got)
	}
	lat := latenciesMS(out)
	for i := 1; i <= 3; i++ {
		if !math.IsInf(lat[i], 1) {
			t.Errorf("latency of failed request %d = %g ms, want +Inf", i, lat[i])
		}
	}
	if lat[0] != 1 {
		t.Errorf("latency of served request = %g ms, want 1", lat[0])
	}
}

// TestOpenLoopTimesFromDueTime sends three requests due at the same
// instant over one connection to a server that takes 20 ms each: the
// generator is never late, but the third request waits behind the other
// two, and its latency must include that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("X-Platoond-Cache", "hit")
	}))
	defer ts.Close()
	s := &platoondSession{
		ts:     ts,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		bodies: map[string][]byte{},
	}
	defer s.client.CloseIdleConnections()
	reqs := []request{{[]byte("{}"), 0}, {[]byte("{}"), 0}, {[]byte("{}"), 0}}
	out := make([]outcome, len(reqs))
	s.openLoop(reqs, out)

	var slowest time.Duration
	for i, o := range out {
		if !o.ok() {
			t.Fatalf("request %d: status %d, err %v", i, o.status, o.err)
		}
		if o.lag < 0 || o.lag > 10*time.Millisecond {
			t.Errorf("request %d: generator lag %v, want a small non-negative lag", i, o.lag)
		}
		slowest = max(slowest, o.latency)
	}
	if slowest < 3*service {
		t.Errorf("slowest latency %v, want >= %v: queueing behind earlier requests must count", slowest, 3*service)
	}
}
