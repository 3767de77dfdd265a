package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (p in [0,100]) of xs; 0 for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the two middle values averaged; 0
// for an empty sample.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// fastLow and fastHigh are the fast decile of a sample of times and of
// throughputs. The host this was written on changes speed by about 15 %
// every few seconds (its two vCPUs share a core with a neighbour), so a
// run's samples are bimodal and their median lands in either mode from
// one run to the next. The fast decile lies in the undisturbed mode in
// every run yet ignores a single freak sample; with ten samples or fewer
// it is the best one.
func fastLow(xs []float64) float64 { return percentile(xs, 10) }

func fastHigh(xs []float64) float64 {
	neg := make([]float64, len(xs))
	for i, x := range xs {
		neg[i] = -x
	}
	return -fastLow(neg)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver applies to ten runs. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the driver checks against a metric's bound.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// sample accumulates observations of one quantity.
type sample struct{ xs []float64 }

func (s *sample) add(x float64)   { s.xs = append(s.xs, x) }
func (s *sample) n() int          { return len(s.xs) }
func (s *sample) median() float64 { return median(s.xs) }
func (s *sample) mean() float64   { return stats.Summarize(s.xs).Mean }
