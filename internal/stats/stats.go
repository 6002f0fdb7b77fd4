// Package stats implements the summary statistics used when reporting
// experimental results, following the scientific-benchmarking guidelines
// the paper cites (Hoefler & Belli, SC'15): medians with nonparametric
// confidence intervals rather than bare means.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	// CILow/CIHigh bound the median's 95% nonparametric confidence
	// interval (binomial order-statistic method). For N < 6 the interval
	// degenerates to [Min, Max].
	CILow  float64
	CIHigh float64
	Stddev float64
}

// Summarize computes the summary of xs. It panics on an empty sample:
// summarizing nothing is always a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)

	sum := 0.0
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	varsum := 0.0
	for _, v := range s {
		varsum += float64((v - mean) * (v - mean))
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(varsum / float64(n-1))
	}

	out := Summary{
		N:      n,
		Min:    s[0],
		Max:    s[n-1],
		Mean:   mean,
		Median: Percentile(s, 50),
		Stddev: std,
	}
	lo, hi := medianCI(n)
	out.CILow, out.CIHigh = s[lo], s[hi]
	return out
}

// Percentile returns the p-th percentile (0..100) of a sorted sample using
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// medianCI returns index bounds of the ~95% binomial confidence interval
// for the median of a sorted sample of size n.
func medianCI(n int) (lo, hi int) {
	if n < 6 {
		return 0, n - 1
	}
	// Normal approximation to Binomial(n, 0.5): ranks at n/2 ± 1.96·√n/2.
	d := 1.96 * math.Sqrt(float64(n)) / 2
	lo = int(math.Floor(float64(float64(n)/2) - float64(d)))
	hi = int(math.Ceil(float64(float64(n)/2) + float64(d)))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%.4g [%.4g, %.4g] mean=%.4g min=%.4g max=%.4g",
		s.N, s.Median, s.CILow, s.CIHigh, s.Mean, s.Min, s.Max)
}
