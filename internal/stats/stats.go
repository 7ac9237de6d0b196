// Package stats provides the small statistical toolkit the SEER
// evaluation harness uses: descriptive summaries (mean, median, standard
// deviation), 99% confidence intervals for the Figure 2 error bars,
// and the random samplers (geometric file sizes with p = 0.00007,
// Zipf-like project popularity, log-normal durations) used by the
// workload generator and simulator.
package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics the paper's Tables 3 and 5
// report: count, total, mean, median, standard deviation, min and max.
type Summary struct {
	N      int
	Total  float64
	Mean   float64
	Median float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty input.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Total / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// z99 is the two-sided 99% standard-normal critical value, the limit of
// the t distribution as the sample size grows.
const z99 = 2.5758293035489004

// t99 holds two-sided 99% Student-t critical values for small degrees
// of freedom. The paper's Figure 2 reports 99% confidence intervals
// across a handful of simulation seeds, where the t correction is far
// from negligible (df=2: 9.92 vs the normal 2.58).
var t99 = [...]float64{
	1:  63.657,
	2:  9.925,
	3:  5.841,
	4:  4.604,
	5:  4.032,
	6:  3.707,
	7:  3.499,
	8:  3.355,
	9:  3.250,
	10: 3.169,
	11: 3.106,
	12: 3.055,
	13: 3.012,
	14: 2.977,
	15: 2.947,
	16: 2.921,
	17: 2.898,
	18: 2.878,
	19: 2.861,
	20: 2.845,
	21: 2.831,
	22: 2.819,
	23: 2.807,
	24: 2.797,
	25: 2.787,
	26: 2.779,
	27: 2.771,
	28: 2.763,
	29: 2.756,
	30: 2.750,
}

// tCrit99 returns the two-sided 99% t critical value for n-1 degrees of
// freedom, falling back to the normal value for large samples.
func tCrit99(n int) float64 {
	df := n - 1
	if df < 1 {
		return 0
	}
	if df < len(t99) {
		return t99[df]
	}
	return z99
}

// CI99 returns the half-width of the 99% confidence interval for the
// mean of xs (Student-t interval on the standard error). It returns 0
// for fewer than two samples.
func CI99(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := Summarize(xs)
	return tCrit99(n) * s.Stddev / math.Sqrt(float64(n))
}
