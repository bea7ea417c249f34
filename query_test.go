package feasim_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"feasim"
	"feasim/internal/core"
)

// TestThresholdQueryCrossBackendParity is the query-API parity check: the
// exact-sim backend's empirical threshold bisection must agree with the
// analytic solver — the boundary ratio within one step (simulation noise can
// flip a knife-edge point), and the analytic weighted efficiency at the
// simulated boundary inside the simulated CI (widened by the usual slack).
func TestThresholdQueryCrossBackendParity(t *testing.T) {
	ctx := context.Background()
	q := feasim.ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 1993}

	aa, err := feasim.NewAnalyticSolver().Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ana := aa.(feasim.ThresholdAnswer)

	pr := feasim.Protocol{Batches: 10, BatchSize: 200, Level: 0.90}
	xa, err := feasim.NewExactSimSolver(pr).Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sim := xa.(feasim.ThresholdAnswer)

	if d := sim.MinRatio - ana.MinRatio; d < -1 || d > 1 {
		t.Errorf("empirical min ratio %d vs analytic %d: off by more than one step", sim.MinRatio, ana.MinRatio)
	}
	if sim.Probes == 0 || sim.Samples == 0 {
		t.Errorf("empirical answer should report bisection cost, got probes=%d samples=%d", sim.Probes, sim.Samples)
	}
	if sim.WeffCI.Zero() {
		t.Fatal("empirical answer should carry the boundary CI")
	}
	// Analytic weighted efficiency at the simulated boundary ratio.
	p, err := feasim.ParamsFromUtilization(float64(sim.MinRatio)*10*float64(q.W), q.W, 10, q.Util)
	if err != nil {
		t.Fatal(err)
	}
	res, err := feasim.Analyze(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if ci := sim.WeffCI.Widen(0.5); !ci.Contains(res.WeightedEfficiency) {
		t.Errorf("boundary CI [%.4f, %.4f] misses analytic weff %.4f at ratio %d",
			ci.Lo, ci.Hi, res.WeightedEfficiency, sim.MinRatio)
	}
	// Both prescriptions must translate to the same J = ratio·O·W rule.
	if sim.MinJobDemand != float64(sim.MinRatio)*10*float64(q.W) {
		t.Errorf("min job demand %.0f != ratio·O·W", sim.MinJobDemand)
	}
}

// TestPartitionQueryDESBisection exercises the only simulation backend that
// right-sizes: the DES bisection must return a W whose report meets the
// target, and respect MaxW.
func TestPartitionQueryDESBisection(t *testing.T) {
	ctx := context.Background()
	pr := feasim.Protocol{Batches: 5, BatchSize: 100, Level: 0.90}
	q := feasim.PartitionQuery{J: 400, O: 10, Util: 0.05, TargetEff: 0.5, MaxW: 8, Seed: 7}
	pa, err := feasim.NewDESSolver(pr, 5).Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ans := pa.(feasim.PartitionAnswer)
	if ans.W < 1 || ans.W > q.MaxW {
		t.Fatalf("chosen W=%d outside [1, %d]", ans.W, q.MaxW)
	}
	if ans.Report.WeightedEfficiency < q.TargetEff {
		t.Errorf("report at chosen W=%d has weff %.4f below target %.2f",
			ans.W, ans.Report.WeightedEfficiency, q.TargetEff)
	}
	if ans.Report.W != ans.W {
		t.Errorf("answer W=%d but report solved W=%d", ans.W, ans.Report.W)
	}
	// The flat analytic right-sizer on the same question should land nearby.
	p, err := core.ParamsFromUtilization(q.J, 1, q.O, q.Util)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.MaxWorkstations(q.J, q.O, p.Fleet().Stations, q.TargetEff, q.MaxW)
	if err != nil {
		t.Fatal(err)
	}
	if d := ans.W - w; d < -2 || d > 2 {
		t.Errorf("DES right-size W=%d vs analytic %d: too far apart", ans.W, w)
	}
}

// TestDistributionQueryEmpiricalMatchesAnalytic compares the exact-sim
// backend's empirical quantiles against the model's exact distribution. The
// job time lives on the lattice T + k·O, so empirical quantiles should land
// within one O step of the exact ones once a few thousand samples are in.
func TestDistributionQueryEmpiricalMatchesAnalytic(t *testing.T) {
	ctx := context.Background()
	q := feasim.DistributionQuery{
		Scenario:  feasim.Scenario{Name: "dist", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 1993},
		Quantiles: []float64{0.5, 0.9},
		Deadlines: []float64{150},
	}
	aa, err := feasim.NewAnalyticSolver().Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	exact := aa.(feasim.DistributionAnswer)

	pr := feasim.Protocol{Batches: 10, BatchSize: 500, Level: 0.90}
	xa, err := feasim.NewExactSimSolver(pr).Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	emp := xa.(feasim.DistributionAnswer)
	if emp.Samples != 5000 {
		t.Errorf("empirical answer used %d samples, want the protocol's 5000", emp.Samples)
	}
	if rel := math.Abs(emp.Mean-exact.Mean) / exact.Mean; rel > 0.02 {
		t.Errorf("empirical mean %.2f vs exact %.2f: off by %.1f%%", emp.Mean, exact.Mean, rel*100)
	}
	for i := range exact.Quantiles {
		if d := math.Abs(emp.Quantiles[i].Time - exact.Quantiles[i].Time); d > 10 { // one O step
			t.Errorf("q%g: empirical %.1f vs exact %.1f", exact.Quantiles[i].Q*100,
				emp.Quantiles[i].Time, exact.Quantiles[i].Time)
		}
	}
	if d := math.Abs(emp.Deadlines[0].Prob - exact.Deadlines[0].Prob); d > 0.05 {
		t.Errorf("P(done by 150): empirical %.4f vs exact %.4f", emp.Deadlines[0].Prob, exact.Deadlines[0].Prob)
	}
}

// TestDESDistributionOnExplicitStations: the workload only the DES backend
// understands must be answerable as a distribution query — the empirical
// path is what makes deadline tails measurable beyond the discrete model.
func TestDESDistributionOnExplicitStations(t *testing.T) {
	q := feasim.DistributionQuery{
		Scenario: feasim.Scenario{
			Name: "het",
			Stations: []feasim.StationSpec{
				{OwnerThink: "exp:190", OwnerDemand: "det:10", Count: 2},
				{OwnerThink: "exp:90", OwnerDemand: "det:10", Count: 2},
			},
			TaskDemand: "det:100",
			Seed:       3,
		},
		Deadlines: []float64{100},
	}
	pr := feasim.Protocol{Batches: 5, BatchSize: 60, Level: 0.90}
	da, err := feasim.NewDESSolver(pr, 5).Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ans := da.(feasim.DistributionAnswer)
	if ans.Mean <= 100 {
		t.Errorf("owner interference should stretch the mean past the dedicated 100, got %v", ans.Mean)
	}
	// The default quantile set applies when none are requested.
	if len(ans.Quantiles) != 4 {
		t.Errorf("want the 4 default quantiles, got %+v", ans.Quantiles)
	}
	if ans.Deadlines[0].Prob < 0 || ans.Deadlines[0].Prob >= 1 {
		t.Errorf("P(done by 100) should be in [0,1) under interference, got %v", ans.Deadlines[0].Prob)
	}
	// The analytic backend must refuse the explicit-station distribution.
	if _, err := feasim.NewAnalyticSolver().Answer(context.Background(), q); err == nil {
		t.Error("analytic backend should refuse explicit-station distribution queries")
	}
}

// TestSolveIsReportQueryShorthand: the kept Solve must agree exactly with
// Answer(ReportQuery) on the deterministic backend.
func TestSolveIsReportQueryShorthand(t *testing.T) {
	ctx := context.Background()
	s := feasim.Scenario{Name: "short", J: 1000, W: 10, O: 10, Util: 0.1, TargetEff: 0.8}
	sv := feasim.NewAnalyticSolver()
	rep, err := sv.Solve(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sv.Answer(ctx, feasim.ReportQuery{Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	got := ra.(feasim.ReportAnswer).Report
	rep.Elapsed, got.Elapsed = 0, 0
	if rep.EJob != got.EJob || rep.WeightedEfficiency != got.WeightedEfficiency ||
		(rep.Feasible == nil) != (got.Feasible == nil) {
		t.Errorf("Solve and Answer(ReportQuery) disagree:\n %+v\n %+v", rep, got)
	}
}

// TestErrUnsupportedAtFacade: the re-exported sentinel matches backend
// refusals end to end.
func TestErrUnsupportedAtFacade(t *testing.T) {
	q := feasim.ScaledQuery{T: 100, O: 10, Util: 0.1, Ws: []int{1, 10}}
	_, err := feasim.NewDESSolver(feasim.Protocol{}, 0).Answer(context.Background(), q)
	if !errors.Is(err, feasim.ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
	var ue *feasim.UnsupportedError
	if !errors.As(err, &ue) || ue.Backend != feasim.BackendDES || ue.Kind != feasim.KindScaled {
		t.Errorf("UnsupportedError should carry (des, scaled), got %v", err)
	}
	for _, sv := range []feasim.Solver{
		feasim.NewAnalyticSolver(),
		feasim.NewExactSimSolver(feasim.Protocol{}),
		feasim.NewDESSolver(feasim.Protocol{}, 0),
	} {
		if len(sv.Capabilities()) == 0 {
			t.Errorf("%s: empty capability list", sv.Name())
		}
	}
}
