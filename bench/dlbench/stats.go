package main

import (
	"fmt"
	"math"
	"sort"

	"datalife/internal/stats"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// minSamples is the sample count at which percentile p (0 < p < 100) has
// minTail samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(minTail/(1-p/100) - 1e-6))
}

// percentile returns percentile p of xs, refusing when fewer than minTail
// samples lie beyond it (p99 needs 1,000 samples, p90 100).
func percentile(xs []float64, p float64) (float64, error) {
	if need := minSamples(p); len(xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, need, len(xs))
	}
	return stats.Percentile(xs, p), nil
}

// tailPercentiles are the candidates for a timing's reported tail.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// highestTail returns the highest candidate percentile that n samples
// support, or 0 when even the median lacks minTail samples beyond it.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n >= minSamples(p) {
			return p
		}
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads read the same here and in any script checking them.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	switch len(d) {
	case 0:
		return q
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}
