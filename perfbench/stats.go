package main

import (
	"math"
	"sort"
)

// quantiles holds a sorted copy of every sample of one latency series, so
// each percentile is an exact order statistic over all samples, never an
// estimate from a bucketed or sampled histogram.
type quantiles struct {
	sorted []int64
}

func newQuantiles(samples []int64) quantiles {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantiles{sorted: s}
}

// at returns the nearest-rank q-quantile: the smallest sample with at least
// a q share of all samples at or below it. It returns 0 for no samples.
func (q quantiles) at(p float64) int64 {
	n := len(q.sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return q.sorted[rank-1]
}

func (q quantiles) n() int { return len(q.sorted) }

func (q quantiles) max() int64 {
	if len(q.sorted) == 0 {
		return 0
	}
	return q.sorted[len(q.sorted)-1]
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, and 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	nsPerUS = 1e3
	nsPerMS = 1e6
)
