package main

import (
	"math"
	"sort"
)

// dist is a set of samples with exact order statistics. Runs are a few
// seconds long, so keeping every sample is cheap and avoids the bucket
// quantisation of a histogram (a quantile that snaps to a bucket
// midpoint reads the same on every run and hides real movement).
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.xs = append(d.xs, v)
	d.sorted = false
}

func (d *dist) merge(o *dist) {
	d.xs = append(d.xs, o.xs...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// q returns the p-quantile (0 < p <= 1) by the nearest-rank method: the
// smallest sample with at least p·n samples at or below it. An empty
// distribution reads 0.
func (d *dist) q(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return nearestRank(d.xs, p)
}

func nearestRank(sorted []float64, p float64) float64 {
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

// tailP is the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, so a reported tail is never a single outlier; 0
// when even p90 is unsupported.
func tailP(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-p) >= 10-1e-9 { // tolerate 1-p rounding
			return p
		}
	}
	return 0
}

// median of a small set (the per-run set-up repetitions).
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
