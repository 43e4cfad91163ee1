package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics at position q·(n+1) — the
// "exclusive" definition Python's statistics.quantiles uses by default, so
// the spreads this package prints match the driver's. Positions beyond the
// sample clamp to its ends. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(n+1) - 1 // zero-based fractional index
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// relSpread is the interquartile distance as a share of the median: the
// statistic the acceptance rule of BENCHMARK.json is stated in.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// aggregateRate is the paper's Eq. 4 over a set of ops: total updates over
// total stepping seconds, in millions per second. It weights every second
// equally, which a mean or median of per-op rates does not.
func aggregateRate(updates []int64, seconds []float64) float64 {
	var u, s float64
	for i := range updates {
		u += float64(updates[i])
		s += seconds[i]
	}
	return u / s / 1e6
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOverMean is the imbalance factor of a load vector: 1 when every part
// carries the same load. An empty or all-zero vector counts as balanced.
func maxOverMean(xs []int64) float64 {
	var max, tot int64
	for _, x := range xs {
		tot += x
		if x > max {
			max = x
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(max) * float64(len(xs)) / float64(tot)
}
