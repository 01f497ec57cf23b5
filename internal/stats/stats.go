// Package stats provides the descriptive statistics behind the paper's
// figures: quartile boxes with 1.5·IQR whiskers and flier points (the
// Fig. 11 violin/box plots), Gaussian kernel density estimation (the Fig. 11
// Ondemand kernel plot), and means with confidence intervals for the
// five-repetition aggregates.
package stats

import (
	"math"
	"sort"
)

// Box summarises a sample the way the paper's Fig. 11 caption describes:
// "Boxes extend from lower to upper quartile values, with a line at the
// median. The whiskers show the range of the lag length at 1.5 IRQ, while
// flier points are those past the end of the whiskers."
type Box struct {
	N                    int
	Min, Max             float64
	Q1, Median, Q3       float64
	WhiskerLo, WhiskerHi float64
	Fliers               []float64
	Mean                 float64
}

// Quantile returns the q-quantile (0..1) of sorted data with linear
// interpolation.
//
// The input MUST be sorted ascending — that is the contract, and callers on
// hot paths should sort once and reuse. As a guard against silent garbage,
// unsorted input is detected (O(n) check) and quantiled over a sorted copy
// instead; the input slice is never modified.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if !sort.Float64sAreSorted(sorted) {
		data := append([]float64(nil), sorted...)
		sort.Float64s(data)
		sorted = data
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	// float64(...) rounds each product so no architecture fuses it into an
	// add (see tools/fmacheck); so do the ones in NewBox, StdDev and Grid.
	pos := float64(q * float64(n-1))
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + float64(frac*(sorted[i+1]-sorted[i]))
}

// NewBox computes box statistics for a sample. The input need not be
// sorted: NewBox sorts an internal copy and leaves the argument untouched.
func NewBox(sample []float64) Box {
	b := Box{N: len(sample)}
	if len(sample) == 0 {
		return b
	}
	data := append([]float64(nil), sample...)
	sort.Float64s(data)
	b.Min, b.Max = data[0], data[len(data)-1]
	b.Q1 = Quantile(data, 0.25)
	b.Median = Quantile(data, 0.5)
	b.Q3 = Quantile(data, 0.75)
	iqr := b.Q3 - b.Q1
	lo := b.Q1 - float64(1.5*iqr)
	hi := b.Q3 + float64(1.5*iqr)
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, v := range data {
		b.Mean += v
		if v >= lo && v < b.WhiskerLo {
			b.WhiskerLo = v
		}
		if v <= hi && v > b.WhiskerHi {
			b.WhiskerHi = v
		}
		if v < lo || v > hi {
			b.Fliers = append(b.Fliers, v)
		}
	}
	b.Mean /= float64(len(data))
	return b
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var s float64
	for _, v := range sample {
		s += v
	}
	return s / float64(len(sample))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(sample []float64) float64 {
	n := len(sample)
	if n < 2 {
		return 0
	}
	m := Mean(sample)
	var ss float64
	for _, v := range sample {
		d := v - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(n-1))
}

// MeanCI95 returns the mean and its ±95% confidence half-width under the
// normal approximation — the paper repeats each configuration five times
// "to reduce the statistical error".
func MeanCI95(sample []float64) (mean, halfWidth float64) {
	mean = Mean(sample)
	if len(sample) < 2 {
		return mean, 0
	}
	halfWidth = 1.96 * StdDev(sample) / math.Sqrt(float64(len(sample)))
	return mean, halfWidth
}

// KDE evaluates a Gaussian kernel density estimate of the sample at the
// given grid points, with Silverman's rule-of-thumb bandwidth — the single
// kernel plot in the top right corner of Fig. 11.
func KDE(sample, grid []float64) []float64 {
	out := make([]float64, len(grid))
	n := len(sample)
	if n == 0 {
		return out
	}
	h := SilvermanBandwidth(sample)
	if h <= 0 {
		h = 1
	}
	norm := 1 / (float64(n) * h * math.Sqrt(2*math.Pi))
	for gi, x := range grid {
		var s float64
		for _, v := range sample {
			u := (x - v) / h
			s += math.Exp(-0.5 * u * u)
		}
		out[gi] = norm * s
	}
	return out
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9·min(σ, IQR/1.34)·n^(-1/5).
func SilvermanBandwidth(sample []float64) float64 {
	n := len(sample)
	if n < 2 {
		return 1
	}
	data := append([]float64(nil), sample...)
	sort.Float64s(data)
	sigma := StdDev(data)
	iqr := Quantile(data, 0.75) - Quantile(data, 0.25)
	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		spread = sigma
	}
	if spread <= 0 {
		return 1
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// Grid builds an evenly spaced grid of n points over [lo, hi].
func Grid(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(float64(i)*step)
	}
	return out
}
