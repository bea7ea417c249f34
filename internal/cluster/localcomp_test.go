package cluster

import (
	"fmt"
	"math"
	"testing"

	"feasim/internal/core"
)

func testCluster(t *testing.T, n int, util float64, seed uint64) *Cluster {
	t.Helper()
	c, err := New(n, elcParams(t, 10, util), seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLocalComputationValidate(t *testing.T) {
	c := testCluster(t, 2, 0.03, 1)
	bad := []LocalComputation{
		{Cluster: nil, Workers: 1, TotalDemand: 10},
		{Cluster: c, Workers: 0, TotalDemand: 10},
		{Cluster: c, Workers: 3, TotalDemand: 10}, // more workers than stations
		{Cluster: c, Workers: 2, TotalDemand: 0},
		{Cluster: c, Workers: 2, TotalDemand: math.Inf(1)},
	}
	for i, lc := range bad {
		if err := lc.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, lc)
		}
		if _, err := lc.Run(); err == nil {
			t.Errorf("case %d: Run should refuse", i)
		}
	}
}

func TestLocalComputationDedicated(t *testing.T) {
	c := testCluster(t, 4, 0, 2)
	res, err := LocalComputation{Cluster: c, Workers: 4, TotalDemand: 400}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTaskTime != 100 || res.MeanTaskTime != 100 {
		t.Errorf("dedicated max/mean = %v/%v, want 100/100", res.MaxTaskTime, res.MeanTaskTime)
	}
	if len(res.Records) != 4 {
		t.Errorf("records = %d", len(res.Records))
	}
	if res.TotalOwnerTime != 0 {
		t.Errorf("owner time on dedicated cluster: %v", res.TotalOwnerTime)
	}
}

func TestLocalComputationRecordsComeFromAllStations(t *testing.T) {
	c := testCluster(t, 6, 0.03, 3)
	res, err := LocalComputation{Cluster: c, Workers: 6, TotalDemand: 600}.Run()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range res.Records {
		seen[r.Station] = true
	}
	if len(seen) != 6 {
		t.Errorf("tasks ran on %d distinct stations, want 6 (one per workstation)", len(seen))
	}
}

func TestLocalComputationMaxAtLeastMean(t *testing.T) {
	c := testCluster(t, 8, 0.1, 4)
	res, err := LocalComputation{Cluster: c, Workers: 8, TotalDemand: 2000}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTaskTime < res.MeanTaskTime {
		t.Errorf("max %v < mean %v", res.MaxTaskTime, res.MeanTaskTime)
	}
	if res.MaxTaskTime < res.DemandPerTask {
		t.Errorf("max task time %v below pure demand %v", res.MaxTaskTime, res.DemandPerTask)
	}
}

// TestExperimentPinnedNumbers pins the Section 4 run at a fixed seed: the
// records come back in station order, and the mean max-task time matches a
// recorded value bit for bit. It holds for any execution order of the
// stations: each draws only from its own stream, and the maximum does not
// depend on record order. MeanTaskTime is not pinned; its float sum does.
func TestExperimentPinnedNumbers(t *testing.T) {
	c := testCluster(t, 6, 0.1, 2024)
	lc := LocalComputation{Cluster: c, Workers: 6, TotalDemand: 1200}
	run, err := lc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range run.Records {
		if want := fmt.Sprintf("elc%d", i); rec.Station != want {
			t.Errorf("record %d from %s, want %s", i, rec.Station, want)
		}
	}

	c = testCluster(t, 6, 0.1, 2024)
	res, err := Experiment{LocalComputation: LocalComputation{Cluster: c, Workers: 6, TotalDemand: 1200}, Runs: 10}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.MaxTaskTime.Mean(), 241.11747269779843; got != want {
		t.Errorf("mean max-task time %v (bits %#x), want %v", got, math.Float64bits(got), want)
	}
}

func TestExperimentAveragesRuns(t *testing.T) {
	c := testCluster(t, 4, 0.05, 6)
	exp := Experiment{
		LocalComputation: LocalComputation{Cluster: c, Workers: 4, TotalDemand: 800},
		Runs:             10,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTaskTime.N() != 10 {
		t.Errorf("runs recorded = %d", res.MaxTaskTime.N())
	}
	if res.MaxTaskTime.Mean() < res.DemandPerTask {
		t.Errorf("mean max task time %v below demand %v", res.MaxTaskTime.Mean(), res.DemandPerTask)
	}
	if _, err := (Experiment{LocalComputation: exp.LocalComputation, Runs: 0}).Run(); err == nil {
		t.Error("zero runs should fail")
	}
}

// TestFigure10Agreement reproduces the paper's Figure 10 check at one
// point: measured mean max-task time on the virtual 12-workstation cluster
// at 3% utilization should sit near the analytic prediction (the paper:
// "The models qualitative and quantitative predictions are in close
// agreement with the measured results").
func TestFigure10Agreement(t *testing.T) {
	const (
		o      = 10.0
		util   = 0.03
		w      = 12
		demand = 960.0 * 12 // 16 dedicated minutes scaled to W tasks
	)
	c := testCluster(t, w, util, 77)
	exp := Experiment{
		LocalComputation: LocalComputation{Cluster: c, Workers: w, TotalDemand: demand},
		Runs:             60,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.ParamsFromUtilization(demand, w, o, util)
	if err != nil {
		t.Fatal(err)
	}
	ana := core.MustAnalyze(p.Fleet())
	got := res.MaxTaskTime.Mean()
	if rel := math.Abs(got-ana.EJob) / ana.EJob; rel > 0.05 {
		t.Errorf("measured mean max-task %.1f vs analytic E_j %.1f (rel %.3f)", got, ana.EJob, rel)
	}
}

// TestFigure11SpeedupFallsWithSmallerDemand pins the paper's Figure 11
// observation: "the speedup decreases as the job demand decreases ... the
// speedup for a job demand of 1 is lower than the speedup for a job demand
// of 16. This is because the task ratio is smaller".
func TestFigure11SpeedupFallsWithSmallerDemand(t *testing.T) {
	const (
		w    = 12
		util = 0.10 // higher interference than the ELCs to sharpen the effect
	)
	speedup := func(minutes float64) float64 {
		demand := minutes * 60
		// maxtask(1)
		c1 := testCluster(t, 1, util, 101)
		e1, err := (Experiment{
			LocalComputation: LocalComputation{Cluster: c1, Workers: 1, TotalDemand: demand},
			Runs:             40,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		// maxtask(W)
		cw := testCluster(t, w, util, 102)
		ew, err := (Experiment{
			LocalComputation: LocalComputation{Cluster: cw, Workers: w, TotalDemand: demand},
			Runs:             40,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return e1.MaxTaskTime.Mean() / ew.MaxTaskTime.Mean()
	}
	s1 := speedup(1)
	s16 := speedup(16)
	if s16 <= s1 {
		t.Errorf("speedup(demand=16min)=%.2f should exceed speedup(demand=1min)=%.2f", s16, s1)
	}
	if s16 > float64(w) {
		t.Errorf("speedup %.2f exceeds W=%d", s16, w)
	}
}
