package core

import (
	"math"
	"testing"
)

// TestConclusionsTable pins the paper's headline thresholds against our
// solver at the Figure 7 system size (60 workstations, O=10, target 80%
// weighted efficiency). The paper quotes 8 / 13 / 20 for utilizations of
// 5 / 10 / 20% read off its Figure 7; the exact solve gives 8 / 12 / 18 —
// within one plot-gridline of the paper (see EXPERIMENTS.md).
func TestConclusionsTable(t *testing.T) {
	want := []int{8, 12, 18}
	paper := []int{8, 13, 20}
	for i, util := range []float64{0.05, 0.1, 0.2} {
		q := paperThreshold(60, util, 0.8)
		ratio, weff, err := q.MinTaskRatio(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if ratio != want[i] {
			t.Errorf("util=%v: min ratio %d, want %d (paper read %d off Figure 7)",
				util, ratio, want[i], paper[i])
		}
		if weff < 0.8 {
			t.Errorf("util=%v: achieved weighted efficiency %.4f below target", util, weff)
		}
		// Minimality: one ratio lower must miss the target.
		below, err := q.weightedEffAtRatio(float64(ratio-1), 60)
		if err != nil {
			t.Fatal(err)
		}
		if below >= 0.8 {
			t.Errorf("util=%v: ratio %d already meets target; %d not minimal",
				util, ratio-1, ratio)
		}
	}
}

// paperThreshold is the paper's threshold question: w stations with owner
// burst demand O = 10 at owner utilization util (equation (8) inverted).
func paperThreshold(w int, util, target float64) ThresholdQuery {
	return ThresholdQuery{Stations: paperStations(w, util), O: 10, TargetWeightedEff: target}
}

// paperStations is the one-group fleet of w stations at owner utilization
// util with O = 10.
func paperStations(w int, util float64) []FleetStation {
	return []FleetStation{{P: util / (10 * (1 - util)), Count: w}}
}

func TestThresholdMonotoneInUtilization(t *testing.T) {
	prev := 0
	for _, util := range []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3} {
		ratio, _, err := paperThreshold(60, util, 0.8).MinTaskRatio(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < prev {
			t.Errorf("threshold fell from %d to %d at util %v", prev, ratio, util)
		}
		prev = ratio
	}
}

func TestThresholdMonotoneInSystemSize(t *testing.T) {
	// Figure 8: "Sensitivity to the task ratio increases with system size."
	prev := 0
	for _, w := range []int{2, 4, 8, 20, 60, 100} {
		ratio, _, err := paperThreshold(w, 0.1, 0.8).MinTaskRatio(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < prev {
			t.Errorf("threshold fell from %d to %d at W=%d", prev, ratio, w)
		}
		prev = ratio
	}
}

func TestWeightedEffMonotoneInRatio(t *testing.T) {
	q := paperThreshold(60, 0.1, 0.8)
	prev := 0.0
	for r := 1; r <= 64; r *= 2 {
		eff, err := q.weightedEffAtRatio(float64(r), 60)
		if err != nil {
			t.Fatal(err)
		}
		if eff < prev-1e-9 {
			t.Errorf("weighted efficiency fell at ratio %d: %v < %v", r, eff, prev)
		}
		prev = eff
	}
}

func TestThresholdDedicated(t *testing.T) {
	ratio, weff, err := paperThreshold(10, 0, 0.99).MinTaskRatio(100)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 || weff != 1 {
		t.Errorf("dedicated system threshold = %d at weighted efficiency %v, want 1 at exactly 1", ratio, weff)
	}
}

func TestThresholdUnreachable(t *testing.T) {
	// Target 1.0 weighted efficiency with interference on W>1 is impossible.
	if _, _, err := paperThreshold(10, 0.2, 1.0).MinTaskRatio(64); err == nil {
		t.Error("unreachable target should error at maxRatio cap")
	}
}

func TestThresholdQueryValidate(t *testing.T) {
	bad := []ThresholdQuery{
		{O: 10, TargetWeightedEff: 0.8},
		paperThreshold(10, 0.1, 0.8),
		paperThreshold(10, 0.1, 0),
		paperThreshold(10, 0.1, 1.2),
	}
	bad[1].O = 0
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d should fail validation: %+v", i, q)
		}
	}
	if _, _, err := paperThreshold(10, 0.1, 0.8).MinTaskRatio(0); err == nil {
		t.Error("maxRatio 0 should be rejected")
	}
	for _, s := range []FleetStation{{P: 1.5, Count: 10}, {P: -0.1, Count: 10}, {P: 0.1, Count: 0}, {P: 0.1, Speed: -1, Count: 10}} {
		q := ThresholdQuery{Stations: []FleetStation{s}, O: 10, TargetWeightedEff: 0.8}
		if err := q.Validate(); err == nil {
			t.Errorf("station %+v should be rejected", s)
		}
	}
}

func TestRequiredJobDemand(t *testing.T) {
	if got := RequiredJobDemand(8, 10, 60); got != 4800 {
		t.Errorf("RequiredJobDemand = %v, want 4800", got)
	}
}

func TestAssessFeasibleAndNot(t *testing.T) {
	// Large job on lightly loaded system: feasible at 80%.
	big, err := ParamsFromUtilization(60000, 60, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Assess(big.Fleet(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Feasible {
		t.Errorf("task ratio 100 at 5%% util should be feasible, weff=%.3f", v.WeightedEfficiency)
	}
	if v.MinRatio != 8 {
		t.Errorf("MinRatio = %d, want 8", v.MinRatio)
	}
	if v.MinJobDemand != 4800 {
		t.Errorf("MinJobDemand = %v, want 4800", v.MinJobDemand)
	}

	// Tiny job on busy system: infeasible, and the verdict says how big J
	// must become.
	small, err := ParamsFromUtilization(600, 60, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Assess(small.Fleet(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Feasible {
		t.Error("task ratio 1 at 20% util should be infeasible")
	}
	if v2.MinJobDemand <= small.J {
		t.Errorf("MinJobDemand %v should exceed current J %v", v2.MinJobDemand, small.J)
	}

	// Unreachable target: infeasible, and no prescription.
	v4, err := Assess(small.Fleet(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if v4.Feasible || v4.MinRatio != 0 || v4.MinJobDemand != 0 {
		t.Errorf("unreachable verdict %+v: want infeasible with no prescription", v4)
	}

	// Dedicated system: trivially feasible with ratio 1.
	ded := Params{J: 100, W: 4, O: 0, P: 0}
	v3, err := Assess(ded.Fleet(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Feasible || v3.MinRatio != 1 {
		t.Errorf("dedicated verdict wrong: %+v", v3)
	}
}

func TestScaledSweepAgainstPaper(t *testing.T) {
	// Conclusions: "+14/30/44/71%" going to 100 workstations at utilizations
	// of 1/5/10/20% with T=100, O=10 (dedicated baseline; see scaled.go).
	want := map[float64]float64{0.01: 0.14, 0.05: 0.30, 0.1: 0.44, 0.2: 0.71}
	for util, inc := range want {
		pts, err := ScaledSweep(100, 10, paperStations(1, util), []int{100})
		if err != nil {
			t.Fatal(err)
		}
		if got := pts[0].IncreaseVsDedicated; math.Abs(got-inc) > 0.02 {
			t.Errorf("util=%v: scaled increase %.3f, paper %.2f", util, got, inc)
		}
	}
}

func TestScaledSweepShape(t *testing.T) {
	pts, err := ScaledSweep(100, 10, paperStations(1, 0.1), []int{1, 2, 5, 10, 20, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Response time is nondecreasing in W and the growth flattens: the
	// marginal increase from 50→100 is smaller than from 1→2 per step.
	prev := 0.0
	for _, pt := range pts {
		if pt.Result.EJob < prev-1e-9 {
			t.Errorf("scaled E_j fell at W=%d", pt.W)
		}
		prev = pt.Result.EJob
	}
	first := pts[1].Result.EJob - pts[0].Result.EJob
	last := (pts[6].Result.EJob - pts[5].Result.EJob) / 50
	if last > first {
		t.Errorf("scaled curve not flattening: early step %v, late per-W step %v", first, last)
	}
	// W=1 increase must be zero vs itself under the single-station baseline.
	if math.Abs(pts[0].IncreaseVsSingle) > 1e-12 {
		t.Errorf("W=1 increase vs single = %v", pts[0].IncreaseVsSingle)
	}
}

func TestScaledTaskRatioConstant(t *testing.T) {
	pts, err := ScaledSweep(100, 10, paperStations(1, 0.05), []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if got := pt.Result.Metrics.TaskRatio; math.Abs(got-10) > 1e-9 {
			t.Errorf("W=%d: scaled task ratio %v, want constant 10", pt.W, got)
		}
	}
}

func TestScaledSweepErrors(t *testing.T) {
	if _, err := ScaledSweep(100, 10, paperStations(1, 0.1), nil); err == nil {
		t.Error("empty sweep should error")
	}
	if _, err := ScaledSweep(100, 10, []FleetStation{{P: 1.5, Count: 1}}, []int{1}); err == nil {
		t.Error("request probability 1.5 should error")
	}
	if _, err := ScaledSweep(100, 10, nil, []int{1}); err == nil {
		t.Error("empty template should error")
	}
}

func TestScaleup(t *testing.T) {
	pts, err := ScaledSweep(100, 10, paperStations(1, 0.1), []int{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Scaleup W·E_j(1)/E_j(W): how much more work the scaled system
	// completes per unit time than one workstation. Perfect scaleup would
	// be 100; interference should cost 20-40%.
	s := float64(pts[1].W) * pts[0].Result.EJob / pts[1].Result.EJob
	if s <= 50 || s >= 100 {
		t.Errorf("scaleup at W=100, util 10%% = %v, expected in (50, 100)", s)
	}
}
