package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		p    float64
		need int
	}{{50, 20}, {90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if got := minSamples(c.p); got != c.need {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, got, c.need)
		}
		if _, err := percentile(seq(c.need-1), c.p); err == nil {
			t.Errorf("p%g over %d samples was not refused", c.p, c.need-1)
		}
		if _, err := percentile(seq(c.need), c.p); err != nil {
			t.Errorf("p%g over %d samples: %v", c.p, c.need, err)
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{{19, 0}, {20, 50}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestTail(c.n); got != c.p {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.p)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}
