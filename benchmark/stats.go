package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile for it
// to be reported: with fewer, the value is one or two samples' noise.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and ok=false when fewer than minTail samples lie above it. xs need
// not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	s := sortedCopy(xs)
	return s[rank-1], true
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile is the highest of p99.9, p99 and p90 that has at least
// minTail samples beyond it, named as in "p99".
func tailPercentile(xs []float64) (string, float64, bool) {
	for _, t := range []struct {
		name string
		q    float64
	}{{"p999", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if v, ok := percentile(xs, t.q); ok {
			return t.name, v, true
		}
	}
	return "", 0, false
}

// p99OrMax is the p99 when it is reportable, else the largest sample (an
// upper bound on it). Per-layer metrics use it, so a layer that saw few
// requests still reports a tail; the sample count tells which it is.
func p99OrMax(xs []float64) float64 {
	if v, ok := percentile(xs, 0.99); ok {
		return v
	}
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
