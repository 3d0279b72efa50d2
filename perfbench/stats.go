package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least a q share of the samples at or below it.  Raw
// samples, never histogram buckets.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	i := int(math.Ceil(q*float64(len(ys)))) - 1
	return ys[max(0, min(i, len(ys)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
