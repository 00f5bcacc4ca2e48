package main

import "sort"

// The slice-ratio estimator. A measured window is a sequence
//
//	ref[0] work[0] ref[1] work[1] ... work[n-1] ref[n]
//
// where ref[i] is the time of one reference iteration in that reference
// slice. Each work value is divided by the mean of its two neighbouring
// reference values, and the reported figure is the median of those ratios.
// Host-speed drift scales a work slice and its neighbours alike and cancels;
// the median discards the slices a scheduler hiccup or a GC cycle landed in.

// ratios returns work[i] / mean(ref[i], ref[i+1]). len(ref) must be
// len(work)+1.
func ratios(work, ref []float64) []float64 {
	out := make([]float64, len(work))
	for i, w := range work {
		out[i] = w / ((ref[i] + ref[i+1]) / 2)
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. Zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// dropWarmup removes the first tenth of a window's values: caches, branch
// predictors and the Go heap are still settling there.
func dropWarmup(xs []float64) []float64 { return xs[len(xs)/10:] }
