package core

import (
	"math"
	"testing"
	"testing/quick"
)

// paperParams builds the fixed-size workload of Figures 1-4.
func paperParams(t *testing.T, j float64, w int, util float64) Params {
	t.Helper()
	p, err := ParamsFromUtilization(j, w, 10, util)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ETaskDirect evaluates equation (3) by direct summation,
//
//	E_t = T + Σ_{i=0}^{T} O·i·Bin(T,i,P),
//
// rather than through the closed form T + O·T·P, so tests can confirm the
// two agree; Analyze uses the closed form.
func ETaskDirect(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := p.trials()
	bin := Binomial{N: n, P: p.P}
	var sum float64
	for i := 0; i <= n; i++ {
		sum += float64(i) * bin.PMF(i)
	}
	return p.TaskDemand() + p.O*sum, nil
}

// EJobDirect evaluates equation (7) through the paper's own Max[W,n]
// construction (equations (4)-(6)) instead of the tail-sum identity, so
// tests can confirm agreement with Analyze.
func EJobDirect(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := p.trials()
	if p.O == 0 || p.P == 0 || n == 0 {
		return p.TaskDemand(), nil
	}
	max := Binomial{N: n, P: p.P}.MaxPMFTable(p.W)
	var sum float64
	for i, prob := range max {
		sum += float64(i) * prob
	}
	return p.TaskDemand() + p.O*sum, nil
}

func TestUtilizationInversionRoundTrips(t *testing.T) {
	for _, util := range []float64{0.01, 0.03, 0.05, 0.1, 0.2, 0.65} {
		p := paperParams(t, 1000, 10, util)
		if got := p.Utilization(); math.Abs(got-util) > 1e-12 {
			t.Errorf("util %v round-tripped to %v", util, got)
		}
	}
}

func TestZeroUtilization(t *testing.T) {
	p := paperParams(t, 1000, 10, 0)
	if p.P != 0 {
		t.Fatalf("zero utilization must give P=0, got %v", p.P)
	}
	r := MustAnalyze(p.Fleet())
	if r.EJob != p.TaskDemand() || r.ETask != p.TaskDemand() {
		t.Errorf("dedicated system: E_j=%v E_t=%v want %v", r.EJob, r.ETask, p.TaskDemand())
	}
	if r.Speedup != float64(p.W) {
		t.Errorf("dedicated speedup = %v, want %d", r.Speedup, p.W)
	}
	if math.Abs(r.WeightedEfficiency-1) > 1e-12 {
		t.Errorf("dedicated weighted efficiency = %v, want 1", r.WeightedEfficiency)
	}
}

// TestPaperFigure1SpotValues pins the two numbers the paper quotes from
// Figure 1: "At 100 nodes the speedup for a system with only 1% utilization
// is only 61% of the optimal speedup, for a 20% utilization the speedup is
// only 32.5% of the optimal speedup."
func TestPaperFigure1SpotValues(t *testing.T) {
	r1 := MustAnalyze(paperParams(t, 1000, 100, 0.01).Fleet())
	if pct := r1.Speedup / 100 * 100; math.Abs(pct-61.0) > 0.5 {
		t.Errorf("util 1%%: %% of optimal = %.1f, paper says 61", pct)
	}
	r20 := MustAnalyze(paperParams(t, 1000, 100, 0.2).Fleet())
	if pct := r20.Speedup / 100 * 100; math.Abs(pct-32.5) > 0.5 {
		t.Errorf("util 20%%: %% of optimal = %.1f, paper says 32.5", pct)
	}
}

// TestPaperWeightedEfficiencySpotValues pins "the weighted-efficiency is
// still only 61.5% (41%) for a utilization of 1% (20%)" at 100 nodes.
func TestPaperWeightedEfficiencySpotValues(t *testing.T) {
	r1 := MustAnalyze(paperParams(t, 1000, 100, 0.01).Fleet())
	if math.Abs(r1.WeightedEfficiency-0.615) > 0.01 {
		t.Errorf("weighted efficiency at 1%% = %.3f, paper says 0.615", r1.WeightedEfficiency)
	}
	r20 := MustAnalyze(paperParams(t, 1000, 100, 0.2).Fleet())
	if math.Abs(r20.WeightedEfficiency-0.41) > 0.01 {
		t.Errorf("weighted efficiency at 20%% = %.3f, paper says 0.41", r20.WeightedEfficiency)
	}
}

func TestETaskClosedFormMatchesDirectSum(t *testing.T) {
	f := func(wRaw, uRaw uint8) bool {
		w := int(wRaw)%100 + 1
		util := float64(uRaw%60)/100 + 0.001
		p, err := ParamsFromUtilization(1000, w, 10, util)
		if err != nil {
			return false
		}
		direct, err := ETaskDirect(p)
		if err != nil {
			return false
		}
		closed := MustAnalyze(p.Fleet()).ETask
		return math.Abs(direct-closed) < 1e-6*(1+closed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEJobTailSumMatchesMaxPMF(t *testing.T) {
	for _, w := range []int{1, 2, 8, 60, 100} {
		for _, util := range []float64{0.01, 0.1, 0.2} {
			p := paperParams(t, 1000, w, util)
			direct, err := EJobDirect(p)
			if err != nil {
				t.Fatal(err)
			}
			viaTail := MustAnalyze(p.Fleet()).EJob
			if math.Abs(direct-viaTail) > 1e-8*(1+viaTail) {
				t.Errorf("W=%d util=%v: direct %v vs tail-sum %v", w, util, direct, viaTail)
			}
		}
	}
}

func TestSingleWorkstationJobEqualsTask(t *testing.T) {
	for _, util := range []float64{0.01, 0.1, 0.3} {
		r := MustAnalyze(paperParams(t, 500, 1, util).Fleet())
		if math.Abs(r.EJob-r.ETask) > 1e-9 {
			t.Errorf("W=1: E_j %v != E_t %v", r.EJob, r.ETask)
		}
	}
}

func TestOrderingInvariants(t *testing.T) {
	// T <= E_t <= E_j <= T + trials·O for any parameters.
	f := func(jRaw uint16, wRaw, uRaw uint8) bool {
		j := float64(jRaw%5000) + 100
		w := int(wRaw)%100 + 1
		util := float64(uRaw%80) / 100
		p, err := ParamsFromUtilization(j, w, 10, util)
		if err != nil {
			return false
		}
		r := MustAnalyze(p.Fleet())
		tdem := p.TaskDemand()
		tol := 1e-9 * (1 + r.EJob) // relative: E_j accumulates thousands of terms
		return r.ETask >= tdem-tol &&
			r.EJob >= r.ETask-tol &&
			r.EJob <= TaskTimeBound(p)+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupBounds(t *testing.T) {
	// 0 < speedup <= W and weighted efficiency in (0, 1].
	f := func(jRaw uint16, wRaw, uRaw uint8) bool {
		j := float64(jRaw%5000) + 100
		w := int(wRaw)%128 + 1
		if j/float64(w) < 1 {
			return true // below the model's time granularity (rejected by Validate)
		}
		util := float64(uRaw%90) / 100
		p, err := ParamsFromUtilization(j, w, 10, util)
		if err != nil {
			return false
		}
		r := MustAnalyze(p.Fleet())
		// The rounded-trials convention undercounts interruption
		// opportunities when T = J/W sits barely above the granularity
		// floor (trials = round(T) < T), which can push the weighted
		// efficiency above 1 — by at most T/trials: E_task = T + trials·P·O
		// ≥ trials/(1−u), so weff = T/((1−u)·E_job) ≤ T/trials. Scale the
		// upper bound to that provable envelope (exactly 1 once trials ≥ T).
		weffBound := 1.0
		if tr := p.trials(); float64(tr) < p.TaskDemand() {
			weffBound = p.TaskDemand() / float64(tr)
		}
		return r.Speedup > 0 && r.Speedup <= float64(w)+1e-9 &&
			r.WeightedEfficiency > 0 && r.WeightedEfficiency <= weffBound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupConcaveBenefitShrinks(t *testing.T) {
	// The paper: "the benefit of adding more nodes decreases as nodes are
	// added". Rounding T=J/W to integral binomial trials puts small wiggles
	// on the marginal gains, so check the trend: the average gain over the
	// first stretch of the curve must clearly exceed the average gain over
	// the last stretch, and speedup itself must keep rising.
	sp := make([]float64, 101)
	for w := 1; w <= 100; w++ {
		sp[w] = MustAnalyze(paperParams(t, 1000, w, 0.1).Fleet()).Speedup
	}
	for w := 2; w <= 100; w++ {
		if sp[w] < sp[w-1]-0.02 {
			t.Errorf("speedup fell materially at W=%d: %v -> %v", w, sp[w-1], sp[w])
		}
	}
	early := (sp[20] - sp[1]) / 19
	late := (sp[100] - sp[81]) / 19
	if late >= early {
		t.Errorf("speedup curve not concave: early gain %v <= late gain %v", early, late)
	}
}

func TestBiggerJobsHigherWeightedEfficiency(t *testing.T) {
	// Figures 3-6: J=10000 dominates J=1000 at every W and utilization.
	for _, util := range []float64{0.01, 0.05, 0.1, 0.2} {
		for _, w := range []int{10, 40, 80, 100} {
			small := MustAnalyze(paperParams(t, 1000, w, util).Fleet())
			big := MustAnalyze(paperParams(t, 10000, w, util).Fleet())
			if big.WeightedEfficiency <= small.WeightedEfficiency {
				t.Errorf("util=%v W=%d: J=10K weff %.4f not above J=1K %.4f",
					util, w, big.WeightedEfficiency, small.WeightedEfficiency)
			}
		}
	}
}

func TestHigherUtilizationLowerSpeedup(t *testing.T) {
	for _, w := range []int{5, 50, 100} {
		prev := math.Inf(1)
		for _, util := range []float64{0.01, 0.05, 0.1, 0.2} {
			r := MustAnalyze(paperParams(t, 1000, w, util).Fleet())
			if r.Speedup >= prev {
				t.Errorf("W=%d: speedup should fall with utilization", w)
			}
			prev = r.Speedup
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{J: 0, W: 1, O: 1, P: 0.1},
		{J: -5, W: 1, O: 1, P: 0.1},
		{J: 100, W: 0, O: 1, P: 0.1},
		{J: 100, W: 1, O: -1, P: 0.1},
		{J: 100, W: 1, O: 1, P: -0.1},
		{J: 100, W: 1, O: 1, P: 1.1},
		{J: math.Inf(1), W: 1, O: 1, P: 0.5},
		{J: 100, W: 1, O: math.NaN(), P: 0.5},
		{J: 10, W: 20, O: 1, P: 0.5}, // T = 0.5 below one time unit
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v should fail validation", i, p)
		}
		if _, err := Analyze(p.Fleet()); err == nil {
			t.Errorf("case %d: Analyze should refuse %+v", i, p)
		}
	}
}

func TestParamsFromUtilizationRejects(t *testing.T) {
	if _, err := ParamsFromUtilization(100, 4, 10, 1.0); err == nil {
		t.Error("utilization 1.0 must be rejected")
	}
	if _, err := ParamsFromUtilization(100, 4, 10, -0.1); err == nil {
		t.Error("negative utilization must be rejected")
	}
	if _, err := ParamsFromUtilization(100, 4, 0, 0.1); err == nil {
		t.Error("positive utilization with O=0 must be rejected")
	}
}

func TestTaskRatio(t *testing.T) {
	p := Params{J: 1000, W: 10, O: 10, P: 0.01}
	if got := p.TaskRatio(); got != 10 {
		t.Errorf("task ratio = %v, want 10", got)
	}
	ded := Params{J: 1000, W: 10, O: 0, P: 0}
	if !math.IsInf(ded.TaskRatio(), 1) {
		t.Error("dedicated task ratio should be +Inf")
	}
}

func TestAnalyzeInterpolatedAgreesAtIntegralT(t *testing.T) {
	p := paperParams(t, 1000, 10, 0.1) // T = 100 exactly
	a := MustAnalyze(p.Fleet())
	b, err := AnalyzeInterpolated(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.EJob != b.EJob || a.ETask != b.ETask {
		t.Errorf("interpolated convention differs at integral T: %v vs %v", a.EJob, b.EJob)
	}
}

func TestAnalyzeInterpolatedBetweenNeighbors(t *testing.T) {
	p := paperParams(t, 1000, 3, 0.1) // T = 333.33...
	r, err := AnalyzeInterpolated(p)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Analyze(Params{J: 999, W: 3, O: p.O, P: p.P}.Fleet()) // T = 333
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Analyze(Params{J: 1002, W: 3, O: p.O, P: p.P}.Fleet()) // T = 334
	if err != nil {
		t.Fatal(err)
	}
	// The blended E[max bursts] must land between the neighbours'.
	if r.EMaxBursts < lo.EMaxBursts-1e-9 || r.EMaxBursts > hi.EMaxBursts+1e-9 {
		t.Errorf("interpolated EMaxBursts %v outside [%v, %v]", r.EMaxBursts, lo.EMaxBursts, hi.EMaxBursts)
	}
}

func TestMustAnalyzePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyze should panic on invalid params")
		}
	}()
	MustAnalyze(Params{}.Fleet())
}

func TestMetricsRelationshipsHold(t *testing.T) {
	r := MustAnalyze(paperParams(t, 1000, 60, 0.05).Fleet())
	if math.Abs(r.Efficiency-r.Speedup/60) > 1e-12 {
		t.Error("efficiency != speedup/W")
	}
	if math.Abs(r.WeightedSpeedup-r.Speedup/(1-r.U)) > 1e-9 {
		t.Error("weighted speedup != speedup/(1-U)")
	}
	if math.Abs(r.WeightedEfficiency-r.Efficiency/(1-r.U)) > 1e-9 {
		t.Error("weighted efficiency != efficiency/(1-U)")
	}
}
