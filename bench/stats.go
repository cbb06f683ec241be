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

// median of xs; NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) (method "exclusive") does, which is the
// rule the acceptance spread is computed with. It needs two samples;
// with fewer both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// j is clamped to [1, n-1] before delta is taken, as CPython
		// does, so tiny samples extrapolate the same way.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailLevels are the percentiles the picker chooses from, ascending;
// beyond level there is one sample in oneIn.
var tailLevels = []struct {
	level float64
	oneIn int
}{{0.50, 2}, {0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile picks the highest level of tailLevels that still
// has at least ten samples beyond it in a sample of n, so a reported
// tail is never a single outlier. ok is false when not even the median
// qualifies (n < 20).
func highestPercentile(n int) (level float64, ok bool) {
	for _, l := range tailLevels {
		if n >= 10*l.oneIn {
			level, ok = l.level, true
		}
	}
	return level, ok
}

// percentile is the nearest-rank percentile of xs (0 < level < 1): the
// smallest sample with at least level of the sample at or below it.
// Non-finite samples (failed requests count as +Inf) sort last.
func percentile(xs []float64, level float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(level * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// worseBy is how much cur is worse than base as a share of base, in
// the metric's direction; negative when cur is better.
func worseBy(base, cur float64, higherBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if higherBetter {
		return -d
	}
	return d
}
