package stats

import (
	"math"
	"testing"
)

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	if tw.Started() || tw.Mean(10) != 0 {
		t.Error("empty accumulator should report 0")
	}
	tw.Observe(0, 2)  // 2 on [0,5)
	tw.Observe(5, 4)  // 4 on [5,10)
	tw.Observe(10, 0) // 0 on [10,20)
	// Mean over [0,20] = (2*5 + 4*5 + 0*10)/20 = 1.5.
	if got := tw.Mean(20); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("mean = %v, want 1.5", got)
	}
	if tw.Min() != 0 || tw.Max() != 4 {
		t.Errorf("min/max = %v/%v", tw.Min(), tw.Max())
	}
	if tw.Current() != 0 {
		t.Errorf("current = %v", tw.Current())
	}
}

func TestTimeWeightedNonZeroStart(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(100, 7)
	tw.Observe(110, 0)
	// Mean over [100,120] = (7*10)/20 = 3.5.
	if got := tw.Mean(120); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("mean = %v, want 3.5", got)
	}
	if got := tw.Integral(); math.Abs(got-70) > 1e-12 {
		t.Errorf("integral = %v, want 70", got)
	}
}

func TestTimeWeightedPanicsOnBackwardsTime(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards observation should panic")
		}
	}()
	tw.Observe(4, 2)
}

func TestTimeWeightedPanicsOnEarlyMean(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 1)
	tw.Observe(10, 2)
	defer func() {
		if recover() == nil {
			t.Error("mean before last observation should panic")
		}
	}()
	tw.Mean(5)
}
