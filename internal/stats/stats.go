// Package stats provides the small set of descriptive statistics the
// experiment harness needs: means, standard deviations, geometric means,
// percentiles, confidence intervals and their summary.
//
// All functions operate on float64 slices and never mutate their inputs
// unless documented otherwise. Empty inputs yield NaN (for point
// statistics) so that a missing series is visible rather than silently
// zero.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// Std returns the sample standard deviation of xs (sqrt of Variance).
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoefVar returns the coefficient of variation std/mean, the quantity
// plotted in Figure 5 of the paper. It returns NaN when the mean is zero
// or there are fewer than two samples.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return Std(xs) / m
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values make the result NaN. Empty input yields NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Min returns the smallest element of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns NaN for empty
// input and clamps p to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CI95 returns the half-width of a 95% confidence interval for the mean
// of xs, using the normal approximation (1.96 * std / sqrt(n)). The
// experiment harness uses it to draw the interval whiskers of Figure 4.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return 1.96 * Std(xs) / math.Sqrt(float64(len(xs)))
}

// Summary bundles the descriptive statistics of one measurement series.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	CI95   float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    Std(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
		CI95:   CI95(xs),
	}
}
