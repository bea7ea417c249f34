package core

import (
	"math"
	"testing"
	"testing/quick"
)

func distParams(t *testing.T, j float64, w int, util float64) Params {
	t.Helper()
	p, err := ParamsFromUtilization(j, w, 10, util)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTaskTimeDistributionMeanMatchesETask(t *testing.T) {
	p := distParams(t, 1000, 10, 0.1)
	d, err := TaskTimeDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	ana := MustAnalyze(p.Fleet())
	if math.Abs(d.Mean()-ana.ETask) > 1e-9*ana.ETask {
		t.Errorf("distribution mean %v vs E_t %v", d.Mean(), ana.ETask)
	}
}

func TestJobTimeDistributionMeanMatchesEJob(t *testing.T) {
	for _, w := range []int{1, 2, 10, 100} {
		for _, util := range []float64{0.01, 0.1, 0.2} {
			p := distParams(t, 1000, w, util)
			d, err := JobTimeDistribution(p.Fleet())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			ana := MustAnalyze(p.Fleet())
			if math.Abs(d.Mean()-ana.EJob) > 1e-8*ana.EJob {
				t.Errorf("W=%d util=%v: distribution mean %v vs E_j %v", w, util, d.Mean(), ana.EJob)
			}
		}
	}
}

func TestJobTimeDistributionDedicated(t *testing.T) {
	p := distParams(t, 1000, 10, 0)
	d, err := JobTimeDistribution(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Times) != 1 || d.Times[0] != 100 || d.Probs[0] != 1 {
		t.Errorf("dedicated job time distribution: %+v", d)
	}
	if d.Variance() != 0 {
		t.Error("dedicated variance should be 0")
	}
}

func TestJobTimeStochasticallyDominatesTaskTime(t *testing.T) {
	// The slowest of W tasks is never faster than one task: for every t,
	// P(job <= t) <= P(task <= t).
	p := distParams(t, 1000, 20, 0.15)
	task, err := TaskTimeDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	job, err := JobTimeDistribution(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{50, 55, 60, 80, 120, 200} {
		if jt, tt := 1-job.TailProb(q), 1-task.TailProb(q); jt > tt+1e-9 {
			t.Errorf("at t=%v: P(job<=t)=%v > P(task<=t)=%v", q, jt, tt)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	p := distParams(t, 1000, 20, 0.1)
	d, err := JobTimeDistribution(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	prev := -math.MaxFloat64
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := d.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = v
	}
	if med := d.Quantile(0.5); med < 50 {
		t.Errorf("median %v below task demand", med)
	}
	defer func() {
		if recover() == nil {
			t.Error("quantile outside [0,1] should panic")
		}
	}()
	d.Quantile(1.5)
}

func TestTailProbEdges(t *testing.T) {
	p := distParams(t, 1000, 10, 0.1)
	d, err := JobTimeDistribution(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TailProb(-1); math.Abs(got-1) > 1e-12 {
		t.Errorf("tail below support = %v, want 1", got)
	}
	if got := d.TailProb(d.Times[len(d.Times)-1]); got != 0 {
		t.Errorf("tail above support = %v, want 0", got)
	}
}

func TestDeadlineProb(t *testing.T) {
	p := distParams(t, 1000, 10, 0.1) // T=100
	// Deadline below T: impossible.
	if prob, err := DeadlineProb(p.Fleet(), 99); err != nil || prob != 0 {
		t.Errorf("impossible deadline: %v %v", prob, err)
	}
	// Deadline at the worst case: certain.
	if prob, err := DeadlineProb(p.Fleet(), TaskTimeBound(p)); err != nil || math.Abs(prob-1) > 1e-9 {
		t.Errorf("certain deadline: %v %v", prob, err)
	}
	// Monotone in the deadline.
	prev := -1.0
	for _, dl := range []float64{100, 110, 130, 160, 200} {
		prob, err := DeadlineProb(p.Fleet(), dl)
		if err != nil {
			t.Fatal(err)
		}
		if prob < prev {
			t.Fatalf("deadline probability fell at %v", dl)
		}
		prev = prob
	}
}

func TestDistributionValidateRejectsBadInput(t *testing.T) {
	bad := []TimeDistribution{
		{},
		{Times: []float64{1}, Probs: []float64{0.5, 0.5}},
		{Times: []float64{1, 1}, Probs: []float64{0.5, 0.5}},
		{Times: []float64{1, 2}, Probs: []float64{0.9, 0.2}},
		{Times: []float64{1, 2}, Probs: []float64{-0.1, 1.1}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, d)
		}
	}
}

func TestVarianceAgainstBinomial(t *testing.T) {
	// Task time is an affine map of the binomial: Var = O²·T·P·(1−P).
	p := distParams(t, 1000, 10, 0.1)
	d, err := TaskTimeDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	want := p.O * p.O * Binomial{N: 100, P: p.P}.Variance()
	if math.Abs(d.Variance()-want) > 1e-6*want {
		t.Errorf("task-time variance %v, want %v", d.Variance(), want)
	}
}

func TestAnalyzeGumbelTracksExact(t *testing.T) {
	// The Gumbel approximation should be within a few percent of the exact
	// E_j in the regime the approximation targets (large mean counts).
	for _, w := range []int{8, 20, 60, 100} {
		p := distParams(t, 100000, w, 0.1) // large T: binomial ≈ normal
		exact := MustAnalyze(p.Fleet())
		approx, err := AnalyzeGumbel(p)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(approx.EJob-exact.EJob) / exact.EJob
		if rel > 0.03 {
			t.Errorf("W=%d: Gumbel E_j %.2f vs exact %.2f (rel %.4f)", w, approx.EJob, exact.EJob, rel)
		}
	}
}

func TestAnalyzeGumbelDegenerateCases(t *testing.T) {
	// W=1 must be exact (no extreme-value step involved).
	p := distParams(t, 1000, 1, 0.1)
	exact := MustAnalyze(p.Fleet())
	approx, err := AnalyzeGumbel(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.EJob-exact.EJob) > 1e-8*exact.EJob {
		t.Errorf("W=1 should be exact: %v vs %v", approx.EJob, exact.EJob)
	}
	// Dedicated system.
	ded := distParams(t, 1000, 10, 0)
	aded, err := AnalyzeGumbel(ded)
	if err != nil {
		t.Fatal(err)
	}
	if aded.EJob != 100 {
		t.Errorf("dedicated Gumbel E_j = %v", aded.EJob)
	}
	if _, err := AnalyzeGumbel(Params{}); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestQuickJobDistributionProper(t *testing.T) {
	f := func(wRaw, uRaw uint8) bool {
		w := int(wRaw)%60 + 1
		util := float64(uRaw%50)/100 + 0.01
		p, err := ParamsFromUtilization(600, w, 10, util)
		if err != nil {
			return false
		}
		d, err := JobTimeDistribution(p.Fleet())
		if err != nil {
			return false
		}
		return d.Validate() == nil && d.Mean() >= p.TaskDemand()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
