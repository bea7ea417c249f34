package feasim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"feasim"
)

// parityProtocol keeps the parity tests fast while leaving the confidence
// intervals wide enough to be meaningful.
var parityProtocol = feasim.Protocol{Batches: 10, BatchSize: 100, Level: 0.90}

// parity slack reuses the Interval.Widen convention: widen the
// simulated interval by (1+slack) to absorb expected CI misses at the 90%
// level (and, for the DES backend, the general model's fidelity gap — it
// drops the exact model's one-unit-progress guarantee, so it runs a shade
// slower by design).
const paritySlack = 0.5

// TestCrossBackendParity solves the same Scenario with all three solvers
// and requires the simulators' weighted-efficiency confidence intervals to
// cover the analytic answer, at the paper's baseline J=1000, O=10 and the
// task-ratio-10 operating point its conclusions highlight.
func TestCrossBackendParity(t *testing.T) {
	ctx := context.Background()
	for _, util := range []float64{0.05, 0.1} {
		s := feasim.Scenario{Name: "parity", J: 1000, W: 10, O: 10, Util: util, Seed: 1993}
		ana, err := feasim.NewAnalyticSolver().Solve(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		solvers := []feasim.Solver{
			feasim.NewExactSimSolver(parityProtocol),
			feasim.NewDESSolver(parityProtocol, 20),
		}
		for _, sv := range solvers {
			rep, err := sv.Solve(ctx, s)
			if err != nil {
				t.Fatalf("util %g, %s: %v", util, sv.Name(), err)
			}
			if rep.Backend != sv.Name() {
				t.Errorf("report backend %q, solver %q", rep.Backend, sv.Name())
			}
			ci := rep.WeffCI.Widen(paritySlack)
			if !ci.Contains(ana.WeightedEfficiency) {
				t.Errorf("util %g, %s: weighted efficiency CI [%.4f, %.4f] misses analytic %.4f",
					util, sv.Name(), ci.Lo, ci.Hi, ana.WeightedEfficiency)
			}
			jb := rep.EJobCI.Widen(paritySlack)
			if !jb.Contains(ana.EJob) {
				t.Errorf("util %g, %s: E[job] CI [%.4f, %.4f] misses analytic %.4f",
					util, sv.Name(), jb.Lo, jb.Hi, ana.EJob)
			}
			if rel := math.Abs(rep.EJob-ana.EJob) / ana.EJob; rel > 0.02 {
				t.Errorf("util %g, %s: E[job] point estimate off by %.2f%%", util, sv.Name(), rel*100)
			}
			if rep.Samples == 0 {
				t.Errorf("%s: simulation report should carry a sample count", sv.Name())
			}
		}
	}
}

// TestSolverVerdictMatchesAssess checks the analytic backend's feasibility
// block against the flat Assess API it wraps.
func TestSolverVerdictMatchesAssess(t *testing.T) {
	s := feasim.Scenario{J: 600, W: 60, O: 10, Util: 0.2, TargetEff: 0.8}
	rep, err := feasim.NewAnalyticSolver().Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := feasim.ParamsFromUtilization(600, 60, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := feasim.Assess(p.Fleet(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible == nil || *rep.Feasible != v.Feasible {
		t.Errorf("verdict %v, Assess says %v", rep.Feasible, v.Feasible)
	}
	if rep.MinRatio != v.MinRatio || rep.MinJobDemand != v.MinJobDemand {
		t.Errorf("prescription (%d, %g), Assess says (%d, %g)",
			rep.MinRatio, rep.MinJobDemand, v.MinRatio, v.MinJobDemand)
	}
}

// TestSolverDeadlineMatchesDistribution checks the deadline probability
// against the flat DeadlineProb API.
func TestSolverDeadlineMatchesDistribution(t *testing.T) {
	s := feasim.Scenario{J: 1000, W: 10, O: 10, Util: 0.1, Deadline: 150}
	rep, err := feasim.NewAnalyticSolver().Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := feasim.ParamsFromUtilization(1000, 10, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := feasim.DeadlineProb(p.Fleet(), 150)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineProb == nil || *rep.DeadlineProb != want {
		t.Errorf("deadline prob %v, DeadlineProb says %v", rep.DeadlineProb, want)
	}
}

// TestUnreachableTargetReportEncodes pins the report for a target no task
// ratio reaches: infeasible, with no prescription, and encodable as JSON —
// the CLI's -json output and the HTTP service both marshal it.
func TestUnreachableTargetReportEncodes(t *testing.T) {
	for name, envelope := range map[string]string{
		"homogeneous": `{"kind":"report","scenario":{"j":1000,"w":4,"o":10,"util":0.2,"target_eff":1}}`,
		"fleet": `{"kind":"report","scenario":{"j":1000,"o":10,"target_eff":0.99,
			"stations":[{"p":0.01,"count":2},{"p":0.01,"speed":0.5,"count":2}]}}`,
	} {
		q, err := feasim.ParseQuery([]byte(envelope))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ans, err := feasim.NewAnalyticSolver().Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := ans.(feasim.ReportAnswer).Report
		if rep.Feasible == nil || *rep.Feasible || rep.MinRatio != 0 || rep.MinJobDemand != 0 {
			t.Errorf("%s: feasible %v, prescription (%d, %g); want infeasible with none",
				name, rep.Feasible, rep.MinRatio, rep.MinJobDemand)
		}
		data, err := json.Marshal(ans)
		if err != nil {
			t.Fatalf("%s: report does not encode: %v", name, err)
		}
		if bytes.Contains(data, []byte("min_ratio")) || bytes.Contains(data, []byte("min_job_demand")) {
			t.Errorf("%s: encoded report carries a prescription: %s", name, data)
		}
	}
}

// TestDedicatedSlowFleetReportAgreesWithThreshold: a fleet with no owner
// activity is capped at its slowest station's speed at every task ratio, so
// the report must not prescribe a ratio the threshold search refuses.
func TestDedicatedSlowFleetReportAgreesWithThreshold(t *testing.T) {
	ctx := context.Background()
	analytic := feasim.NewAnalyticSolver()
	stations := []feasim.StationSpec{{Speed: 0.5, Count: 2}, {Speed: 1, Count: 2}}
	for _, target := range []float64{0.4, 0.8} {
		ans, err := analytic.Answer(ctx, feasim.ReportQuery{Scenario: feasim.Scenario{
			J: 1000, O: 10, TargetEff: target, Stations: stations,
		}})
		if err != nil {
			t.Fatal(err)
		}
		rep := ans.(feasim.ReportAnswer).Report
		thr, thrErr := analytic.Answer(ctx, feasim.ThresholdQuery{W: 4, O: 10, TargetEff: target, Stations: stations})
		if thrErr != nil {
			if rep.MinRatio != 0 || rep.MinJobDemand != 0 {
				t.Errorf("target %v: threshold refuses (%v) but the report prescribes ratio %d, demand %g",
					target, thrErr, rep.MinRatio, rep.MinJobDemand)
			}
			if rep.Feasible == nil || *rep.Feasible {
				t.Errorf("target %v: threshold refuses but the report says feasible", target)
			}
			continue
		}
		ta := thr.(feasim.ThresholdAnswer)
		if rep.MinRatio != ta.MinRatio || rep.MinJobDemand != ta.MinJobDemand {
			t.Errorf("target %v: report prescribes (%d, %g), threshold answers (%d, %g)",
				target, rep.MinRatio, rep.MinJobDemand, ta.MinRatio, ta.MinJobDemand)
		}
	}
}

// TestSolversHonorCancelledContext requires every backend to fail fast with
// the context error when solving under an already-cancelled context.
func TestSolversHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := feasim.Scenario{J: 1000, W: 10, O: 10, Util: 0.1, Seed: 1}
	for _, sv := range []feasim.Solver{
		feasim.NewAnalyticSolver(),
		feasim.NewExactSimSolver(feasim.Protocol{}),
		feasim.NewDESSolver(feasim.Protocol{}, 0),
	} {
		if _, err := sv.Solve(ctx, s); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", sv.Name(), err)
		}
	}
}

// TestDESSolvesExplicitStations exercises the one description form only the
// DES backend understands, and requires the discrete-model backends to
// refuse it rather than silently approximate.
func TestDESSolvesExplicitStations(t *testing.T) {
	s := feasim.Scenario{
		Name: "het",
		Stations: []feasim.StationSpec{
			{OwnerThink: "exp:190", OwnerDemand: "det:10", Count: 4},
			{OwnerThink: "exp:90", OwnerDemand: "det:10", Count: 4},
		},
		TaskDemand: "det:100",
		Seed:       3,
	}
	pr := feasim.Protocol{Batches: 5, BatchSize: 50, Level: 0.90}
	rep, err := feasim.NewDESSolver(pr, 5).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.W != 8 {
		t.Errorf("station count %d, want 8", rep.W)
	}
	// Mean configured utilization: (0.05 + 0.1) / 2.
	if math.Abs(rep.U-0.075) > 1e-9 {
		t.Errorf("mean utilization %v, want 0.075", rep.U)
	}
	if rep.EJob <= 100 {
		t.Errorf("owner interference should stretch the job past its dedicated time, got %v", rep.EJob)
	}
	if _, err := feasim.NewAnalyticSolver().Solve(context.Background(), s); err == nil {
		t.Error("analytic backend should refuse explicit-station scenarios")
	}
	if _, err := feasim.NewExactSimSolver(pr).Solve(context.Background(), s); err == nil {
		t.Error("exact backend should refuse explicit-station scenarios")
	}
}

// TestOwnerVarianceOnlyMovesDES: OwnerCV2 is invisible to the discrete
// model (it sees only the mean) but slows the DES backend — the variance
// ablation the sweep engine exploits for deduplication.
func TestOwnerVarianceOnlyMovesDES(t *testing.T) {
	ctx := context.Background()
	base := feasim.Scenario{J: 1200, W: 12, O: 10, Util: 0.1, Seed: 11}
	noisy := base
	noisy.OwnerCV2 = 16
	a1, err := feasim.NewAnalyticSolver().Solve(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := feasim.NewAnalyticSolver().Solve(ctx, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if a1.EJob != a2.EJob {
		t.Errorf("analytic backend should ignore OwnerCV2: %v vs %v", a1.EJob, a2.EJob)
	}
	pr := feasim.Protocol{Batches: 5, BatchSize: 100, Level: 0.90}
	d1, err := feasim.NewDESSolver(pr, 10).Solve(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := feasim.NewDESSolver(pr, 10).Solve(ctx, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if d2.EJob <= d1.EJob {
		t.Errorf("high-variance owner demands should slow the DES job: CV2=1 %.2f, CV2=16 %.2f",
			d1.EJob, d2.EJob)
	}
}

func TestSolverByName(t *testing.T) {
	for _, name := range feasim.Backends() {
		sv, err := feasim.SolverByName(name, feasim.Protocol{})
		if err != nil {
			t.Fatal(err)
		}
		if sv.Name() != name {
			t.Errorf("solver %q resolved as %q", name, sv.Name())
		}
	}
	if _, err := feasim.SolverByName("csim", feasim.Protocol{}); err == nil {
		t.Error("unknown backend should error")
	}
}
