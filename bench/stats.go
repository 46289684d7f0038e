package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <=
// 100) of sorted: the smallest sample with at least p% of the samples
// at or below it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is ⌈p/100·n⌉ clamped to [1, n]; the small slack keeps a
// product that is an integer on paper (99.9% of 10000) from rounding up.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentiles are the candidates of highestPercentile, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile picks the highest of tailPercentiles that still has
// at least ten samples beyond it in n samples — the tail a run of that
// size can resolve. It returns 0 when not even the median qualifies.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n > 0 && n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the mean of the two middle samples for even counts (the
// statistics.median convention); NaN when empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the ones the PR driver computes. With fewer than
// two samples both are the lone sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
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

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
