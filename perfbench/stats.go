package main

import (
	"fmt"
	"sort"
)

// Percentiles are computed from raw samples by nearest rank, never from
// bucketed histograms: a bucket edge reads the same value run after run
// and hides any change smaller than its width.

// rank is the 1-based nearest-rank position of the p-th percentile in n
// sorted samples, in exact integer arithmetic.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// minSamples is the smallest sample count that leaves at least ten
// samples beyond the p-th percentile.
func minSamples(p int) int {
	for n := 1; ; n++ {
		if n-rank(n, p) >= 10 {
			return n
		}
	}
}

// percentile returns the p-th percentile of xs (sorting xs in place). It
// fails when fewer than ten samples lie beyond the percentile, so every
// reported tail is backed by data.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if n == 0 || n-rank(n, p) < 10 {
		return 0, fmt.Errorf("p%d needs %d samples, have %d", p, minSamples(p), n)
	}
	sort.Float64s(xs)
	return xs[rank(n, p)-1], nil
}

// median returns the middle sample of xs (the lower middle for an even
// count), sorting xs in place. Unlike percentile it accepts any
// non-empty sample: it summarizes repeated runs, not a latency tail.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}
