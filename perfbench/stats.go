package main

import (
	"fmt"
	"math"
	"sort"
)

// rank is the 1-based nearest-rank index of the q-quantile of n values.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// median is the middle value of xs (mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailQuantiles are the percentiles a tail summary may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tail summarises a latency sample: its nearest-rank median and the
// highest percentile, up to the one asked for, that still has at least
// ten samples beyond it. Q is 0 when no percentile qualifies (fewer than
// twenty samples), and Value is then the maximum.
type tail struct {
	N     int
	P50   float64
	Q     float64
	Value float64
	Max   float64
}

// summarize builds the tail summary of xs (sorted in place), reporting
// at most the want-quantile.
func summarize(xs []float64, want float64) tail {
	t := tail{N: len(xs)}
	if t.N == 0 {
		return t
	}
	sort.Float64s(xs)
	t.P50 = xs[rank(t.N, 0.5)-1]
	t.Max = xs[t.N-1]
	t.Value = t.Max
	for _, q := range tailQuantiles {
		if q <= want && t.N-rank(t.N, q) >= 10 {
			t.Q, t.Value = q, xs[rank(t.N, q)-1]
			break
		}
	}
	return t
}

func (t tail) String() string {
	if t.Q == 0 {
		return fmt.Sprintf("p50 %.3f, max %.3f (n=%d, too few for a tail percentile)", t.P50, t.Value, t.N)
	}
	return fmt.Sprintf("p50 %.3f, p%g %.3f, max %.3f (n=%d)", t.P50, t.Q*100, t.Value, t.Max, t.N)
}
