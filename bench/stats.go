package main

import (
	"cmp"
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted[T cmp.Ordered](xs []T) []T {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	return ys
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	ys := sorted(xs)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// midmean returns the interquartile mean of xs: the mean of the middle half
// of the sorted values, the two values straddling a quartile boundary
// weighted by the part of them inside. Like the median it ignores outliers
// on both sides, but where samples alternate between two modes it lands
// between the modes whatever their number, while a median jumps from one
// mode to the other with the parity of the count. It is the estimator where
// noise has no preferred side (the saturation runs' rate and allocation, the
// traced run's rates); a repetition's time is estimated by its fast quartile
// instead (closedEndToEnd). NaN for an empty slice.
func midmean(xs []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return math.NaN()
	}
	lo, hi := n/4, n-n/4 // value i occupies [i, i+1) of the sorted axis
	var sum float64
	for i, y := range sorted(xs) {
		if w := math.Min(float64(i+1), hi) - math.Max(float64(i), lo); w > 0 {
			sum += w * y
		}
	}
	return sum / (hi - lo)
}

// minOf returns the smallest value of xs; NaN for an empty slice. It is
// the set-up estimator: a deterministic amount of work plus additive host
// noise is best estimated by its fastest sample.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the spreads this benchmark prints are the ones the acceptance check
// computes. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	ys := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (ys[j-1]*(4-delta) + ys[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run dispersion the acceptance check compares against a bound.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile returns the exact p-quantile (0 <= p <= 1) of an ascending
// slice by the nearest-rank rule: the smallest element with at least
// ceil(p*n) elements at or below it. No bucketing, no interpolation, so
// len(sorted) - rank is exactly the number of samples beyond the answer.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
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
	return sorted[rank-1]
}

// quantileUs is the exact p-quantile of ns samples (in any order), in us.
func quantileUs(ns []int64, p float64) float64 {
	return float64(percentile(sorted(ns), p)) / 1e3
}

// burstFirstLast folds per-job sojourn times (job j belongs to burst
// j/burstJobs, all jobs of a burst share one due time) into the two
// per-burst figures: first is due -> first job of the burst executed (the
// wake-up latency), last is due -> last job executed (the burst's drain
// time). len(sojourn) must be a multiple of burstJobs.
func burstFirstLast(sojourn []int64, burstJobs int) (first, last []int64) {
	bursts := len(sojourn) / burstJobs
	first = make([]int64, bursts)
	last = make([]int64, bursts)
	for b := 0; b < bursts; b++ {
		jobs := sojourn[b*burstJobs : (b+1)*burstJobs]
		lo, hi := jobs[0], jobs[0]
		for _, s := range jobs[1:] {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		first[b], last[b] = lo, hi
	}
	return first, last
}
