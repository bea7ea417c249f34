// Package stats provides the statistical machinery the paper's simulation
// study relies on: running summary accumulators, Student-t quantiles, and
// the batch-means confidence-interval method (Kobayashi, "Modeling and
// Analysis", 1978 — the paper's reference [4]) with which the paper reports "confidence intervals of 1 percent or less at a 90 percent
// confidence level ... 20 batches per simulation run and a batch size of
// 1000 samples".
package stats

import (
	"fmt"
	"math"
)

// Summary is a single-pass accumulator of count, mean, variance (Welford),
// minimum and maximum. The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add accumulates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddAll accumulates a batch of observations.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N is the number of observations.
func (s Summary) N() int64 { return s.n }

// Mean is the sample mean (0 when empty).
func (s Summary) Mean() float64 { return s.mean }

// Variance is the unbiased sample variance (0 when n < 2).
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev is the unbiased sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min is the minimum observation (0 when empty).
func (s Summary) Min() float64 { return s.min }

// Max is the maximum observation (0 when empty).
func (s Summary) Max() float64 { return s.max }

// StdErr is the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.n < 1 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Mean      float64 // point estimate
	HalfWidth float64 // half-width of the interval
	Level     float64 // confidence level, e.g. 0.90
}

// Lo is the lower endpoint.
func (c CI) Lo() float64 { return c.Mean - c.HalfWidth }

// Hi is the upper endpoint.
func (c CI) Hi() float64 { return c.Mean + c.HalfWidth }

// Relative is the half-width as a fraction of the mean (∞ for a zero mean
// with nonzero half-width; 0 when both are zero).
func (c CI) Relative() float64 {
	if c.Mean == 0 {
		if c.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(c.HalfWidth / c.Mean)
}

// Contains reports whether v lies inside the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo() && v <= c.Hi() }

func (c CI) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%)", c.Mean, c.HalfWidth, c.Level*100)
}

// MeanCI builds a Student-t confidence interval for the mean of the
// accumulated observations at the given confidence level.
func (s Summary) MeanCI(level float64) CI {
	if s.n < 2 {
		return CI{Mean: s.Mean(), HalfWidth: math.Inf(1), Level: level}
	}
	t := TQuantile(0.5+level/2, float64(s.n-1))
	return CI{Mean: s.Mean(), HalfWidth: t * s.StdErr(), Level: level}
}
