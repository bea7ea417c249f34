package stats

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero-value summary should be empty")
	}
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if !almost(s.Variance(), 32.0/7, 1e-12) {
		t.Errorf("variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Error("variance of one observation must be 0")
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("min/max of single observation")
	}
}

func TestSummaryMeanCI(t *testing.T) {
	var s Summary
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 10)) // mean 4.5
	}
	ci := s.MeanCI(0.95)
	if !ci.Contains(4.5) {
		t.Errorf("CI %v should contain 4.5", ci)
	}
	if ci.Lo() >= ci.Hi() {
		t.Error("CI endpoints inverted")
	}
	var one Summary
	one.Add(5)
	if ci := one.MeanCI(0.9); !math.IsInf(ci.HalfWidth, 1) {
		t.Error("CI with one sample should have infinite half-width")
	}
}

func TestCIHelpers(t *testing.T) {
	ci := CI{Mean: 10, HalfWidth: 1, Level: 0.9}
	if ci.Lo() != 9 || ci.Hi() != 11 {
		t.Error("Lo/Hi wrong")
	}
	if !ci.Contains(9) || !ci.Contains(11) || ci.Contains(8.999) {
		t.Error("Contains wrong at boundaries")
	}
	if !almost(ci.Relative(), 0.1, 1e-12) {
		t.Errorf("Relative = %v", ci.Relative())
	}
	zero := CI{}
	if zero.Relative() != 0 {
		t.Error("zero CI should have zero relative width")
	}
	if r := (CI{Mean: 0, HalfWidth: 1}).Relative(); !math.IsInf(r, 1) {
		t.Error("zero-mean nonzero-width CI should be infinite relative")
	}
	if ci.String() == "" {
		t.Error("String empty")
	}
}
