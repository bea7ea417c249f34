package solve

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestThresholdWarmStartCutsProbes pins the ROADMAP perf item: warm-starting
// the empirical threshold bisection from the analytic answer must confirm
// the boundary in exactly two probes on the reference scenario, agree with
// the cold search's answer, and cut the probe count by at least 3×. The
// probe function is the analytic report itself, which makes the "simulated"
// measurements deterministic and exactly monotone — so warm and cold paths
// are guaranteed to see the same boundary and the comparison isolates the
// search strategy.
func TestThresholdWarmStartCutsProbes(t *testing.T) {
	ctx := context.Background()
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8}
	maxRatio := q.maxRatio(DefaultSimMaxRatio)
	probe := Analytic{}.report

	ca, err := bisectThreshold(ctx, BackendExact, q, maxRatio, 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	cold := ca.(ThresholdAnswer)

	guess := analyticThresholdGuess(q, maxRatio)
	if guess != cold.MinRatio {
		t.Fatalf("analytic guess %d, cold empirical boundary %d: the deterministic probe should agree", guess, cold.MinRatio)
	}
	wa, err := bisectThreshold(ctx, BackendExact, q, maxRatio, guess, probe)
	if err != nil {
		t.Fatal(err)
	}
	warm := wa.(ThresholdAnswer)

	if warm.MinRatio != cold.MinRatio {
		t.Errorf("warm-started boundary %d != cold boundary %d", warm.MinRatio, cold.MinRatio)
	}
	if warm.AchievedWeff != cold.AchievedWeff {
		t.Errorf("warm boundary weff %v != cold %v", warm.AchievedWeff, cold.AchievedWeff)
	}
	if warm.Probes != 2 {
		t.Errorf("warm start should confirm the analytic boundary in 2 probes, took %d", warm.Probes)
	}
	if cold.Probes < 3*warm.Probes {
		t.Errorf("probe reduction not realized: cold %d probes vs warm %d", cold.Probes, warm.Probes)
	}
}

// TestThresholdWarmStartDisagreement: when the guess is wrong in either
// direction the search must still land on the true boundary of the measured
// (deterministic, monotone) curve.
func TestThresholdWarmStartDisagreement(t *testing.T) {
	ctx := context.Background()
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8}
	maxRatio := q.maxRatio(DefaultSimMaxRatio)
	probe := Analytic{}.report

	ca, err := bisectThreshold(ctx, BackendExact, q, maxRatio, 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	want := ca.(ThresholdAnswer).MinRatio

	for _, guess := range []int{1, want - 3, want + 5, 4 * want, maxRatio} {
		if guess < 1 {
			continue
		}
		wa, err := bisectThreshold(ctx, BackendExact, q, maxRatio, guess, probe)
		if err != nil {
			t.Fatalf("guess %d: %v", guess, err)
		}
		if got := wa.(ThresholdAnswer).MinRatio; got != want {
			t.Errorf("guess %d: boundary %d, want %d", guess, got, want)
		}
	}
}

// TestThresholdWarmStartRespectsDedicated: util == 0 short-circuits before
// any probing regardless of the guess.
func TestThresholdWarmStartRespectsDedicated(t *testing.T) {
	q := ThresholdQuery{W: 10, O: 10, Util: 0, TargetEff: 0.8}
	a, err := bisectThreshold(context.Background(), BackendExact, q, 64, 7,
		func(context.Context, Scenario) (Report, error) {
			panic("dedicated systems must not probe")
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.(ThresholdAnswer).MinRatio; got != 1 {
		t.Errorf("dedicated system min ratio %d, want 1", got)
	}
}

// TestPartitionWarmStartCutsProbes is the threshold pin's mirror for the
// right-sizing search (the ROADMAP carry-forward): warm-starting the
// empirical partition bisection from core.MaxWorkstations must confirm the
// boundary in exactly two probes, agree with the cold search, and cut the
// probe count by at least 3×. The probe is again the analytic report, so the
// measured curve is deterministic and exactly monotone in W.
func TestPartitionWarmStartCutsProbes(t *testing.T) {
	ctx := context.Background()
	q := PartitionQuery{J: 2000, O: 10, Util: 0.1, TargetEff: 0.8, MaxW: 64, Seed: 5}
	probe := Analytic{}.report

	ca, err := bisectPartition(ctx, BackendDES, q, 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	cold := ca.(PartitionAnswer)
	if cold.W <= 1 || cold.W >= q.MaxW {
		t.Fatalf("boundary W=%d sits on the search edge; pick a query with an interior boundary", cold.W)
	}

	guess := analyticPartitionGuess(q)
	if guess != cold.W {
		t.Fatalf("analytic guess %d, cold empirical boundary %d: the deterministic probe should agree", guess, cold.W)
	}
	wa, err := bisectPartition(ctx, BackendDES, q, guess, probe)
	if err != nil {
		t.Fatal(err)
	}
	warm := wa.(PartitionAnswer)

	if warm.W != cold.W {
		t.Errorf("warm-started boundary W=%d != cold W=%d", warm.W, cold.W)
	}
	if warm.Report.WeightedEfficiency != cold.Report.WeightedEfficiency {
		t.Errorf("warm boundary weff %v != cold %v", warm.Report.WeightedEfficiency, cold.Report.WeightedEfficiency)
	}
	if warm.Probes != 2 {
		t.Errorf("warm start should confirm the analytic boundary in 2 probes, took %d", warm.Probes)
	}
	if cold.Probes < 3*warm.Probes {
		t.Errorf("probe reduction not realized: cold %d probes vs warm %d", cold.Probes, warm.Probes)
	}
}

// TestPartitionWarmStartDisagreement: wrong guesses in either direction must
// still land on the true boundary of the measured monotone curve.
func TestPartitionWarmStartDisagreement(t *testing.T) {
	ctx := context.Background()
	q := PartitionQuery{J: 2000, O: 10, Util: 0.1, TargetEff: 0.8, MaxW: 64, Seed: 5}
	probe := Analytic{}.report

	ca, err := bisectPartition(ctx, BackendDES, q, 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	want := ca.(PartitionAnswer).W

	for _, guess := range []int{1, want - 3, want + 5, 2 * want, q.MaxW} {
		if guess < 1 {
			continue
		}
		wa, err := bisectPartition(ctx, BackendDES, q, guess, probe)
		if err != nil {
			t.Fatalf("guess %d: %v", guess, err)
		}
		if got := wa.(PartitionAnswer).W; got != want {
			t.Errorf("guess %d: boundary W=%d, want %d", guess, got, want)
		}
	}
}

// TestPartitionWarmStartInfeasible: when even one workstation misses the
// target (a simulated probe can measure below target where the analytic
// model cannot), warm and cold paths must fail with the same diagnostic.
func TestPartitionWarmStartInfeasible(t *testing.T) {
	ctx := context.Background()
	q := PartitionQuery{J: 40, O: 10, Util: 0.45, TargetEff: 0.8, MaxW: 4, Seed: 5}
	probe := func(_ context.Context, s Scenario) (Report, error) {
		return Report{W: s.W, WeightedEfficiency: 0.5}, nil
	}

	_, coldErr := bisectPartition(ctx, BackendDES, q, 0, probe)
	if coldErr == nil {
		t.Fatal("expected infeasibility")
	}
	for _, guess := range []int{1, 2, 4} {
		_, warmErr := bisectPartition(ctx, BackendDES, q, guess, probe)
		if warmErr == nil || warmErr.Error() != coldErr.Error() {
			t.Errorf("guess %d: error %v, want %v", guess, warmErr, coldErr)
		}
	}
}

// TestThresholdRMinBeyondMax: the simulation backends' threshold search
// starts at r_min = max_g ⌈s_g/O⌉; when that exceeds maxRatio (O tiny, or a
// station vastly faster than O) it fails at once, before any probe.
func TestThresholdRMinBeyondMax(t *testing.T) {
	ctx := context.Background()
	probe := func(context.Context, Scenario) (Report, error) {
		t.Error("no ratio should be probed")
		return Report{}, nil
	}
	for _, q := range []ThresholdQuery{
		{W: 4, O: 1e-20, Util: 0.1, TargetEff: 0.5},
		{W: 4, O: 1, TargetEff: 0.5, Stations: []StationSpec{{P: 0.5, Speed: 1e15}}},
	} {
		done := make(chan error)
		go func() {
			_, err := bisectThreshold(ctx, BackendDES, q, q.maxRatio(DefaultSimMaxRatio), 0, probe)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "unreachable within task ratio") {
				t.Errorf("%+v: error %v, want unreachable", q, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: threshold search did not return", q)
		}
	}
}
