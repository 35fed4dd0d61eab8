package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile (0 < p <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// typical reduces the batch means of a run to the one wall time per op
// that is reported: the mean of the densest half of the run, by time.
//
// xs are costs per op of batches of equal op count, so each batch's share of
// the measuring time is proportional to its value. The densest half is the
// narrowest range of cost that holds half of that time, and the result is
// the mean over the batches in it. Up to half the run's time may be spent in
// some other regime, on either side, without moving it: slow host phases
// above, and below, the episodes in which the two-P workloads run at one-P
// speed. Those episodes are short in time but pack in many batches, which is
// why the weights are time and not batch counts; a low percentile reports
// them as soon as they reach its rank (see README, the estimator).
func typical(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0
	}
	sum := make([]float64, n+1) // sum[i] is the time of the i cheapest batches
	for i, x := range asc {
		sum[i+1] = sum[i] + x
	}
	half := sum[n] / 2
	lo, hi := 0, n-1
	for i, j := 0, 0; i < n; i++ {
		for j < n && sum[j+1]-sum[i] < half {
			j++
		}
		if j == n {
			break
		}
		if asc[j]-asc[i] < asc[hi]-asc[lo] {
			lo, hi = i, j
		}
	}
	return (sum[hi+1] - sum[lo]) / float64(hi-lo+1)
}

// tail is the highest value that still has at least ten samples beyond it,
// or the maximum when there are too few samples for that.
func tail(asc []float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	if len(asc) > 10 {
		return asc[len(asc)-11]
	}
	return asc[len(asc)-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
