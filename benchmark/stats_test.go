package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{n: 999, q: 0.99, ok: false},             // rank 990, 9 beyond
		{n: 1000, q: 0.99, ok: true, want: 990},  // rank 990, 10 beyond
		{n: 19, q: 0.5, ok: false},               // rank 10, 9 beyond
		{n: 20, q: 0.5, ok: true, want: 10},      // rank 10, 10 beyond
		{n: 2000, q: 0.99, ok: true, want: 1980}, // rank 1980, 20 beyond
		{n: 0, q: 0.5, ok: false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileCountsFailuresAsMissingTheLimit(t *testing.T) {
	// 2% of requests failed: their latency is +Inf, so p99 must not read as
	// a fast success.
	xs := seq(1000)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	p99, ok := percentile(xs, 0.99)
	if !ok || !math.IsInf(p99, 1) {
		t.Fatalf("p99 = %v, %v; want +Inf", p99, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestTailPercentilePicksHighestReportable(t *testing.T) {
	for _, tc := range []struct {
		n    int
		name string
	}{{n: 50, name: ""}, {n: 200, name: "p90"}, {n: 1500, name: "p99"}, {n: 20000, name: "p999"}} {
		name, _, ok := tailPercentile(seq(tc.n))
		if name != tc.name || ok != (tc.name != "") {
			t.Errorf("n=%d: got %q, %v; want %q", tc.n, name, ok, tc.name)
		}
	}
}
