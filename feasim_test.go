package feasim_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"feasim"
)

// These tests exercise the public facade end to end, the way the examples
// and a downstream user would.

func TestFacadeAnalyzeMatchesPaperSpotValue(t *testing.T) {
	p, err := feasim.ParamsFromUtilization(1000, 100, 10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r, err := feasim.Analyze(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Speedup-61.0) > 0.5 {
		t.Errorf("speedup %.2f, paper quotes 61", r.Speedup)
	}
}

func TestFacadeAssessRoundTrip(t *testing.T) {
	p := feasim.NewParams(600, 60, 10, 0.025)
	v, err := feasim.Assess(p.Fleet(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if v.Feasible {
		t.Error("task ratio 1 at ~20% utilization must be infeasible")
	}
	if v.MinJobDemand <= p.J {
		t.Error("advice should require a larger job")
	}
}

func TestFacadeSimulationPipeline(t *testing.T) {
	s := feasim.Scenario{J: 1000, W: 10, O: 10, Util: 0.1, Seed: 7}
	pr := feasim.Protocol{Batches: 10, BatchSize: 100, Level: 0.9, MaxSamples: 1 << 20}
	sim, err := feasim.NewExactSimSolver(pr).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Samples < 1000 {
		t.Errorf("samples = %d", sim.Samples)
	}
	ana, err := feasim.NewAnalyticSolver().Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if wide := sim.EJobCI.Widen(3); !wide.Contains(ana.EJob) {
		t.Errorf("simulation %v far from analysis %.3f", sim.EJobCI, ana.EJob)
	}
}

func TestFacadeGeneralSimulator(t *testing.T) {
	s := feasim.Scenario{J: 200, W: 4, O: 10, P: 0.01, Seed: 9}
	pr := feasim.Protocol{Batches: 4, BatchSize: 50, Level: 0.9, MaxSamples: 1 << 20}
	r, err := feasim.NewDESSolver(pr, 0).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.EJob < 50 {
		t.Errorf("job time %v below task demand", r.EJob)
	}
}

func TestFacadeClusterExperiment(t *testing.T) {
	params, err := feasim.SunELCParams(10, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	c, err := feasim.NewCluster(4, params, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := feasim.LocalComputation{Cluster: c, Workers: 4, TotalDemand: 400}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTaskTime < 100 {
		t.Errorf("max task time %v below per-task demand", res.MaxTaskTime)
	}
}

func TestFacadeDistParsing(t *testing.T) {
	d, err := feasim.ParseDist("hyper:0.5,5,15")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 10 {
		t.Errorf("mean %v", d.Mean())
	}
	h := feasim.BalancedHyperExp(10, 4)
	if math.Abs(h.Mean()-10) > 1e-9 {
		t.Errorf("balanced hyper mean %v", h.Mean())
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	if len(feasim.Experiments()) != 16 {
		t.Errorf("experiments = %d, want 16", len(feasim.Experiments()))
	}
	d, ok := feasim.ExperimentByID("fig09")
	if !ok {
		t.Fatal("fig09 missing")
	}
	cfg := feasim.DefaultExperimentConfig()
	cfg.WStep = 25
	out, err := d.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art, err := feasim.RenderASCII(*out.Figure, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art, "fig09") {
		t.Error("render missing figure id")
	}
	csv, err := feasim.FigureCSV(*out.Figure)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "Number of Processors") {
		t.Errorf("csv header: %q", strings.Split(csv, "\n")[0])
	}
}

func TestFacadeThresholdAndScaled(t *testing.T) {
	ctx := context.Background()
	solver := feasim.NewAnalyticSolver()
	a, err := solver.Answer(ctx, feasim.ThresholdQuery{W: 60, O: 10, Util: 0.05, TargetEff: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.(feasim.ThresholdAnswer).MinRatio; got != 8 {
		t.Errorf("threshold %d, want 8", got)
	}
	a, err = solver.Answer(ctx, feasim.ScaledQuery{T: 100, O: 10, Util: 0.05, Ws: []int{1, 100}})
	if err != nil {
		t.Fatal(err)
	}
	pts := a.(feasim.ScaledAnswer).Points
	if math.Abs(pts[1].IncreaseVsDedicated-0.30) > 0.02 {
		t.Errorf("scaled increase %v, paper 0.30", pts[1].IncreaseVsDedicated)
	}
}

func TestFacadeStats(t *testing.T) {
	bm := feasim.NewBatchMeans(10)
	for i := 0; i < 200; i++ {
		bm.Add(float64(i % 10))
	}
	ci, err := bm.MeanCI(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(4.5) {
		t.Errorf("CI %v misses 4.5", ci)
	}
	var s feasim.Summary
	s.Add(1)
	s.Add(3)
	if s.Mean() != 2 {
		t.Errorf("mean %v", s.Mean())
	}
}

func TestFacadeDistributionAPI(t *testing.T) {
	p, err := feasim.ParamsFromUtilization(1000, 10, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := feasim.JobTimeDistribution(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	r, err := feasim.Analyze(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-r.EJob) > 1e-8*r.EJob {
		t.Errorf("distribution mean %v vs E_j %v", d.Mean(), r.EJob)
	}
	td, err := feasim.TaskTimeDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(td.Mean()-r.ETask) > 1e-8*r.ETask {
		t.Errorf("task distribution mean %v vs E_t %v", td.Mean(), r.ETask)
	}
	prob, err := feasim.DeadlineProb(p.Fleet(), r.EJob*2)
	if err != nil {
		t.Fatal(err)
	}
	if prob < 0.99 {
		t.Errorf("generous deadline probability %v", prob)
	}
	g, err := feasim.AnalyzeGumbel(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.EJob <= 0 {
		t.Error("Gumbel approximation returned nonpositive E_j")
	}
}

func TestFacadePartitionPlanning(t *testing.T) {
	ctx := context.Background()
	solver := feasim.NewAnalyticSolver()
	q := feasim.PartitionQuery{J: 2000, O: 10, Util: 0.05, TargetEff: 0.8, MaxW: 200}
	a, err := solver.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	plan := a.(feasim.PartitionAnswer)
	if plan.Report.W != plan.W || plan.Report.WeightedEfficiency < q.TargetEff {
		t.Errorf("plan W %d: report at W=%d has weff %.4f", plan.W, plan.Report.W, plan.Report.WeightedEfficiency)
	}
	// The plan is the largest W meeting the target.
	next, err := solver.Solve(ctx, feasim.Scenario{J: q.J, W: plan.W + 1, O: q.O, Util: q.Util})
	if err != nil {
		t.Fatal(err)
	}
	if next.WeightedEfficiency >= q.TargetEff {
		t.Errorf("W=%d still meets the target (weff %.4f); plan W=%d is not the largest", plan.W+1, next.WeightedEfficiency, plan.W)
	}
}

func TestFacadeMultiJob(t *testing.T) {
	base := feasim.HomogeneousGeometric(4, 100, 10, 1.0/90)
	cfg := feasim.MultiJobConfig{
		Stations:   base.Stations,
		TaskDemand: base.TaskDemand,
		Jobs:       2,
		JobThink:   feasim.Exponential{M: 50},
		Seed:       5,
	}
	st, err := feasim.RunMultiJob(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st.Response.N() != 100 {
		t.Errorf("responses = %d, want 100", st.Response.N())
	}
	pts, err := feasim.MultiJobSweep(cfg, []int{1, 2}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].MeanResponse <= pts[0].MeanResponse {
		t.Errorf("sweep results %+v", pts)
	}
}
