package sim

import (
	"context"
	"math"
	"testing"

	"feasim/internal/core"
	"feasim/internal/rng"
	"feasim/internal/stats"
)

func mustParams(t *testing.T, j float64, w int, o, util float64) core.Params {
	t.Helper()
	p, err := core.ParamsFromUtilization(j, w, o, util)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExactRejectsNonIntegralT(t *testing.T) {
	p := mustParams(t, 1000, 3, 10, 0.1) // T = 333.33
	if _, err := NewExact(p, 1); err == nil {
		t.Error("non-integral task demand should be rejected")
	}
}

func TestExactRejectsInvalidParams(t *testing.T) {
	if _, err := NewExact(core.Params{}, 1); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestExactDedicatedIsDeterministic(t *testing.T) {
	p := mustParams(t, 1000, 10, 10, 0)
	x, err := NewExact(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s := x.Sample()
		if s.JobTime != 100 || s.MaxBursts != 0 {
			t.Fatalf("dedicated sample = %+v, want job time 100, no bursts", s)
		}
	}
}

func TestExactSampleReproducible(t *testing.T) {
	p := mustParams(t, 1000, 20, 10, 0.1)
	a, _ := NewExact(p, 42)
	b, _ := NewExact(p, 42)
	for i := 0; i < 100; i++ {
		sa, sb := a.Sample(), b.Sample()
		if sa != sb {
			t.Fatalf("same seed diverged at sample %d: %+v vs %+v", i, sa, sb)
		}
	}
}

func TestExactBurstsMeanMatchesBinomial(t *testing.T) {
	// Mean bursts per task must be T·P for both samplers.
	p := mustParams(t, 2000, 20, 10, 0.1) // T=100, P=1/90
	want := 100 * p.P
	for name, sample := range map[string]func(*Exact) JobSample{
		"gap":      (*Exact).Sample,
		"stepwise": (*Exact).SampleStepwise,
	} {
		x, _ := NewExact(p, 99)
		var tot float64
		const n = 4000
		for i := 0; i < n; i++ {
			tot += float64(sample(x).TotalBursts)
		}
		got := tot / (n * 20)
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("%s sampler: mean bursts/task %.4f, want %.4f", name, got, want)
		}
	}
}

func TestGapAndStepwiseSamplersAgree(t *testing.T) {
	// The O(bursts) gap sampler and the O(T) stepwise reference must draw
	// from the same distribution: compare means of job time and max bursts.
	p := mustParams(t, 600, 6, 10, 0.15) // T=100
	const n = 6000
	var gapJob, stepJob, gapMax, stepMax float64
	xg, _ := NewExact(p, 11)
	xs, _ := NewExact(p, 12)
	for i := 0; i < n; i++ {
		g, s := xg.Sample(), xs.SampleStepwise()
		gapJob += g.JobTime
		stepJob += s.JobTime
		gapMax += float64(g.MaxBursts)
		stepMax += float64(s.MaxBursts)
	}
	gapJob, stepJob, gapMax, stepMax = gapJob/n, stepJob/n, gapMax/n, stepMax/n
	if math.Abs(gapJob-stepJob) > 0.01*stepJob {
		t.Errorf("job-time means differ: gap %.3f vs stepwise %.3f", gapJob, stepJob)
	}
	if math.Abs(gapMax-stepMax) > 0.05*stepMax {
		t.Errorf("max-burst means differ: gap %.3f vs stepwise %.3f", gapMax, stepMax)
	}
}

// TestValidationAgainstAnalysis is the paper's Section 2.2 procedure: "We
// duplicated the experiment found in figure 1 of this paper and the
// simulation results were identical to the analysis." We run a scaled-down
// protocol over several Figure 1 points and require the analytic values to
// fall inside (slightly widened) simulation confidence intervals.
func TestValidationAgainstAnalysis(t *testing.T) {
	pr := Protocol{Batches: 20, BatchSize: 500, Level: 0.90, MaxRel: 0, MaxSamples: 1 << 20}
	seed := uint64(2024)
	for _, w := range []int{1, 10, 50, 100} {
		for _, util := range []float64{0.01, 0.1, 0.2} {
			p := mustParams(t, 1000, w, 10, util)
			if p.TaskDemand() != math.Trunc(p.TaskDemand()) {
				continue
			}
			x, err := NewExact(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			run, err := RunExactCtx(context.Background(), x, pr)
			if err != nil {
				t.Fatal(err)
			}
			ana := core.MustAnalyze(p.Fleet())
			jb, tk := run.JobTime, run.MeanTask
			jb.HalfWidth *= 1.6
			tk.HalfWidth *= 1.6
			if !jb.Contains(ana.EJob) || !tk.Contains(ana.ETask) {
				t.Errorf("W=%d util=%v: analysis E_j=%.3f E_t=%.3f outside simulation CIs %v / %v",
					w, util, ana.EJob, ana.ETask, run.JobTime, run.MeanTask)
			}
			seed++
		}
	}
}

func TestRunExactPrecisionLoop(t *testing.T) {
	p := mustParams(t, 1000, 10, 10, 0.1)
	x, err := NewExact(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	pr := Protocol{Batches: 10, BatchSize: 100, Level: 0.90, MaxRel: 0.005, MaxSamples: 500_000}
	res, err := RunExactCtx(context.Background(), x, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetPrecision {
		t.Errorf("precision not met after %d samples (rel=%v)", res.Samples, res.JobTime.Relative())
	}
	if res.JobTime.Relative() > 0.005 {
		t.Errorf("relative width %v above target", res.JobTime.Relative())
	}
	if res.Samples < 1000 {
		t.Errorf("must run at least the minimum %d samples, ran %d", 1000, res.Samples)
	}
}

// TestRunExactPrecisionHitsSampleBound: an unreachable precision target
// stops the batch loop at MaxSamples, reporting the target unmet.
func TestRunExactPrecisionHitsSampleBound(t *testing.T) {
	p := mustParams(t, 1000, 10, 10, 0.1)
	x, err := NewExact(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	pr := Protocol{Batches: 5, BatchSize: 100, Level: 0.90, MaxRel: 1e-9, MaxSamples: 1000}
	res, err := RunExactCtx(context.Background(), x, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MetPrecision {
		t.Error("1e-9 relative precision should not be met in 1000 samples")
	}
	if res.Samples != 1000 {
		t.Errorf("samples = %d, want the full budget 1000", res.Samples)
	}
}

func TestProtocolValidate(t *testing.T) {
	bad := []Protocol{
		{Batches: 1, BatchSize: 10, Level: 0.9},
		{Batches: 5, BatchSize: 0, Level: 0.9},
		{Batches: 5, BatchSize: 10, Level: 0},
		{Batches: 5, BatchSize: 10, Level: 1},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, pr)
		}
	}
	if err := DefaultProtocol().Validate(); err != nil {
		t.Errorf("default protocol invalid: %v", err)
	}
}

func TestHomogeneousGeometricConfig(t *testing.T) {
	cfg := HomogeneousGeometric(12, 100, 10, 0.01)
	if len(cfg.Stations) != 12 {
		t.Fatalf("stations = %d", len(cfg.Stations))
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// U = O/(1/P + O) = 10/110.
	want := 10.0 / 110
	if got := cfg.MeanUtilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("configured utilization %v, want %v", got, want)
	}
	if got := cfg.TaskDemand.Mean(); got != 100 {
		t.Errorf("task demand mean %v", got)
	}
}

func TestGeneralConfigValidate(t *testing.T) {
	if err := (GeneralConfig{}).Validate(); err == nil {
		t.Error("empty config should fail")
	}
	cfg := HomogeneousGeometric(2, 10, 10, 0.01)
	cfg.TaskDemand = nil
	if err := cfg.Validate(); err == nil {
		t.Error("missing task demand should fail")
	}
	cfg2 := HomogeneousGeometric(2, 10, 10, 0.01)
	cfg2.Stations[1].OwnerThink = nil
	if err := cfg2.Validate(); err == nil {
		t.Error("missing owner think should fail")
	}
	if _, err := NewGeneral(GeneralConfig{}); err == nil {
		t.Error("NewGeneral should reject invalid config")
	}
}

func TestGeneralDedicatedMatchesDemand(t *testing.T) {
	// Owners that never compute: job time equals task demand exactly.
	cfg := GeneralConfig{
		TaskDemand: rng.Deterministic{V: 50},
		Seed:       3,
	}
	for i := 0; i < 4; i++ {
		cfg.Stations = append(cfg.Stations, StationConfig{
			OwnerThink:  rng.Deterministic{V: 1e12},
			OwnerDemand: rng.Deterministic{V: 0},
		})
	}
	g, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Samples {
		if s.JobTime != 50 {
			t.Errorf("dedicated job time %v, want 50", s.JobTime)
		}
	}
}

func TestGeneralObservedUtilizationMatchesConfig(t *testing.T) {
	cfg := HomogeneousGeometric(4, 100, 10, 1.0/90) // 10% utilization
	cfg.Seed = 17
	cfg.WarmupJobs = 20
	g, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.MeanUtilization()
	if math.Abs(st.ObservedUtil-want) > 0.015 {
		t.Errorf("observed owner utilization %.4f, configured %.4f", st.ObservedUtil, want)
	}
	if st.Preemptions == 0 {
		t.Error("expected some task preemptions at 10% utilization")
	}
}

// TestGeneralTracksAnalysisAtLowUtilization: with the paper's geometric
// workload, wall-clock owner thinking (the General model) should stay close
// to the task-progress model at light load — the regime of the paper's
// measured 3% system.
func TestGeneralTracksAnalysisAtLowUtilization(t *testing.T) {
	p := mustParams(t, 1200, 12, 10, 0.03)
	cfg := HomogeneousGeometric(12, 100, 10, p.P)
	cfg.Seed = 23
	cfg.WarmupJobs = 10
	g, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	var sum stats.Summary
	for _, s := range st.Samples {
		sum.Add(s.JobTime)
	}
	ana := core.MustAnalyze(p.Fleet())
	if rel := math.Abs(sum.Mean()-ana.EJob) / ana.EJob; rel > 0.05 {
		t.Errorf("general model mean job time %.2f vs analysis %.2f (rel %.3f)",
			sum.Mean(), ana.EJob, rel)
	}
}

func TestGeneralImbalanceHurts(t *testing.T) {
	// Paper Section 2.1 optimism point 1: deterministic task times are the
	// best case; imbalance (same mean, positive variance) raises E_j.
	mean := func(samples []JobSample) float64 {
		var s stats.Summary
		for _, x := range samples {
			s.Add(x.JobTime)
		}
		return s.Mean()
	}
	base := HomogeneousGeometric(8, 100, 10, 1.0/90)
	base.Seed = 31
	gb, _ := NewGeneral(base)
	sb, err := gb.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	imb := HomogeneousGeometric(8, 100, 10, 1.0/90)
	imb.TaskDemand = rng.Uniform{Lo: 50, Hi: 150} // same mean 100
	imb.Seed = 31
	gi, _ := NewGeneral(imb)
	si, err := gi.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if mean(si.Samples) <= mean(sb.Samples) {
		t.Errorf("imbalanced tasks should raise job time: balanced %.2f, imbalanced %.2f",
			mean(sb.Samples), mean(si.Samples))
	}
}

func TestGeneralHigherVarianceOwnersHurt(t *testing.T) {
	// Paper Section 2.1 optimism point 2: deterministic owner demands are
	// optimistic; hyperexponential demands with the same mean raise E_j.
	mean := func(samples []JobSample) float64 {
		var s stats.Summary
		for _, x := range samples {
			s.Add(x.JobTime)
		}
		return s.Mean()
	}
	det := HomogeneousGeometric(8, 100, 10, 1.0/90)
	det.Seed = 37
	gd, _ := NewGeneral(det)
	sd, err := gd.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	hv := HomogeneousGeometric(8, 100, 10, 1.0/90)
	for i := range hv.Stations {
		hv.Stations[i].OwnerDemand = rng.BalancedHyperExp(10, 16)
	}
	hv.Seed = 37
	gh, _ := NewGeneral(hv)
	sh, err := gh.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if mean(sh.Samples) <= mean(sd.Samples) {
		t.Errorf("high-variance owners should raise job time: det %.2f, hyper %.2f",
			mean(sd.Samples), mean(sh.Samples))
	}
}

func TestRunGeneralProtocol(t *testing.T) {
	cfg := HomogeneousGeometric(4, 50, 10, 1.0/90)
	cfg.Seed = 41
	g, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr := Protocol{Batches: 5, BatchSize: 50, Level: 0.90, MaxRel: 0, MaxSamples: 1 << 20}
	res, err := RunGeneralCtx(context.Background(), g, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 250 {
		t.Errorf("samples = %d, want 250", res.Samples)
	}
	if res.JobTime.Mean < 50 {
		t.Errorf("job time %v below task demand", res.JobTime.Mean)
	}
	if res.ObservedUtil <= 0 {
		t.Error("observed utilization should be positive")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cfg := HomogeneousGeometric(2, 10, 10, 0.01)
	g, _ := NewGeneral(cfg)
	if _, err := g.Run(0); err == nil {
		t.Error("Run(0) should error")
	}
	if _, err := RunGeneralCtx(context.Background(), g, Protocol{}); err == nil {
		t.Error("invalid protocol should error")
	}
	x, _ := NewExact(mustParams(t, 100, 10, 10, 0.1), 1)
	if _, err := RunExactCtx(context.Background(), x, Protocol{}); err == nil {
		t.Error("invalid protocol should error")
	}
}
