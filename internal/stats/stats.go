// Package stats provides the statistical machinery shared by the experiment
// harness and the tests: summary statistics over repeated trials,
// Kolmogorov-Smirnov distances, and Wilson score confidence intervals for
// failure probabilities.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics and moments for a batch of observations.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary over xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    sorted[0],
		P25:    Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		P75:    Quantile(sorted, 0.75),
		P90:    Quantile(sorted, 0.90),
		P99:    Quantile(sorted, 0.99),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary compactly for table cells.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g med=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Median, s.Max)
}

// Quantile returns the q-quantile of sorted (ascending) data using linear
// interpolation between closest ranks. q is clamped to [0, 1]. It panics on
// empty input.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
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

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MaxFloat returns the maximum of xs. It panics on empty input.
func MaxFloat(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: MaxFloat of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FailureRate returns the fraction of trials for which failed is true.
type FailureRate struct {
	Failures int
	Trials   int
}

// Rate is the point estimate Failures/Trials (0 when Trials == 0).
func (f FailureRate) Rate() float64 {
	if f.Trials == 0 {
		return 0
	}
	return float64(f.Failures) / float64(f.Trials)
}

// Wilson returns the Wilson score interval for the failure probability at
// the given z value (z = 1.96 for ~95%, z = 2.576 for ~99%).
func (f FailureRate) Wilson(z float64) (lo, hi float64) {
	return WilsonInterval(f.Failures, f.Trials, z)
}

func (f FailureRate) String() string {
	lo, hi := f.Wilson(1.96)
	return fmt.Sprintf("%d/%d=%.3f [%.3f,%.3f]", f.Failures, f.Trials, f.Rate(), lo, hi)
}

// WilsonInterval returns the Wilson score interval for k successes in n
// trials at normal quantile z. For n == 0 it returns the vacuous [0, 1].
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// KSDistance returns the Kolmogorov-Smirnov distance between the empirical
// distributions of a and b: sup_x |F_a(x) - F_b(x)|. This equals the maximal
// density discrepancy over the prefix set system {(-inf, x]} and is the
// headline "representativeness" metric in the distributed-database
// experiment. Either input may be empty, in which case the distance is 1
// against a non-empty input and 0 when both are empty.
func KSDistance(a, b []float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var i, j int
	var d float64
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSDistanceInt64 is KSDistance specialized to int64 samples.
func KSDistanceInt64(a, b []int64) float64 {
	fa := make([]float64, len(a))
	for i, v := range a {
		fa[i] = float64(v)
	}
	fb := make([]float64, len(b))
	for i, v := range b {
		fb[i] = float64(v)
	}
	return KSDistance(fa, fb)
}
