package core

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
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

// TestWeightedEffMonotoneInRatio: weighted efficiency is nondecreasing in
// the task ratio wherever every trial count r·O/s_g is integral, as here
// (O = 10, reference speed). Rounded trial counts break this
// (TestMinTaskRatioNonMonotoneCounterexample).
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

// TestThresholdUnreachable: target 1.0 weighted efficiency with
// interference on W > 1 is impossible. The search decides it in at most two
// probes, and the error text is the one the galloping search produced (best
// is the efficiency at maxRatio), byte for byte.
func TestThresholdUnreachable(t *testing.T) {
	cases := []struct {
		w        int
		util     float64
		maxRatio int
		want     string
	}{
		{10, 0.2, 64, "core: target weighted efficiency 1.000 unreachable within task ratio 64 (best 0.9268)"},
		{10, 0.2, 1 << 20, "core: target weighted efficiency 1.000 unreachable within task ratio 1048576 (best 0.9994)"},
		{60, 0.1, 1 << 20, "core: target weighted efficiency 1.000 unreachable within task ratio 1048576 (best 0.9993)"},
		{2, 0.05, 1000, "core: target weighted efficiency 1.000 unreachable within task ratio 1000 (best 0.9961)"},
	}
	for _, c := range cases {
		_, _, probes, err := paperThreshold(c.w, c.util, 1.0).minTaskRatio(c.maxRatio)
		if err == nil || err.Error() != c.want {
			t.Errorf("W=%d util=%v max=%d: error %v, want %q", c.w, c.util, c.maxRatio, err, c.want)
		}
		if probes > 2 {
			t.Errorf("W=%d util=%v max=%d: %d probes to decide an unreachable target, want <= 2", c.w, c.util, c.maxRatio, probes)
		}
	}
}

// gallopMinTaskRatio is the search MinTaskRatio replaced: gallop from ratio
// 1 (1, 2, 4, …) to a ratio meeting the target, then bisect. It returns the
// ratio and the number of Analyze probes made.
func gallopMinTaskRatio(t *testing.T, q ThresholdQuery, maxRatio int) (ratio, probes int) {
	t.Helper()
	w := Fleet{Stations: q.Stations}.W()
	meets := func(r int) bool {
		probes++
		e, err := q.weightedEffAtRatio(float64(r), w)
		if err != nil {
			t.Fatal(err)
		}
		return e >= q.TargetWeightedEff
	}
	hi := 1
	for !meets(hi) {
		if hi >= maxRatio {
			return 0, probes
		}
		hi = min(2*hi, maxRatio)
	}
	lo := hi / 2
	for lo+1 < hi {
		if mid := (lo + hi) / 2; meets(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, probes
}

// TestMinTaskRatioProbeCount: over the paper's threshold table (W = 60,
// O = 10, util 1–20%, target 0.8) the warm-started search answers as the
// gallop did with at least 2× fewer Analyze probes.
func TestMinTaskRatioProbeCount(t *testing.T) {
	warm, gallop := 0, 0
	for u := 1; u <= 20; u++ {
		q := paperThreshold(60, float64(u)/100, 0.8)
		r, _, n, err := q.minTaskRatio(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		want, m := gallopMinTaskRatio(t, q, 1<<20)
		if r != want {
			t.Errorf("util %d%%: ratio %d, gallop %d", u, r, want)
		}
		warm += n
		gallop += m
	}
	if 2*warm > gallop {
		t.Errorf("warm-started search made %d probes, gallop %d: want at least 2x fewer", warm, gallop)
	}
}

// TestRatioGuessSmallGroups: groups of one to four stations sit below the
// Gumbel asymptotic (shift a < 1, negative skew term). The closed form must
// stay finite and near the answer there, or every such search would start
// at maxRatio.
func TestRatioGuessSmallGroups(t *testing.T) {
	for count := 1; count <= 4; count++ {
		for _, util := range []float64{0.01, 0.1, 0.3} {
			q := ThresholdQuery{Stations: []FleetStation{
				{P: util / (10 * (1 - util)), Count: count},
				{P: util / (20 * (1 - util)), Speed: 1.5, Count: count},
			}, O: 10, TargetWeightedEff: 0.6}
			_, guess := q.ratioGuess()
			r, _, err := q.MinTaskRatio(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if !(guess <= 4*float64(r)+4) {
				t.Errorf("count %d util %v: closed-form guess %v for threshold %d", count, util, guess, r)
			}
		}
	}
}

// TestMinTaskRatioSmallO: with O < 1 ratio 1 puts the task demand below one
// time unit, where the model is undefined; the search starts at r_min.
func TestMinTaskRatioSmallO(t *testing.T) {
	q := ThresholdQuery{Stations: []FleetStation{{P: 0.1 / (0.5 * 0.9), Count: 16}}, O: 0.5, TargetWeightedEff: 0.8}
	if got, _ := q.MinValidRatio(1 << 20); got != 2 {
		t.Fatalf("r_min = %d, want 2 (T = r·O >= 1)", got)
	}
	r, eff, err := q.MinTaskRatio(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	checkThresholdContract(t, q, r, eff)
	// A fleet whose fast group needs r·O/s >= 1: s = 4, O = 0.3 gives
	// r_min = 14 (13·0.3/4 < 1); the slow dedicated group does not count.
	q = ThresholdQuery{Stations: []FleetStation{{P: 0.02, Speed: 4, Count: 3}, {Speed: 0.5, Count: 2}}, O: 0.3, TargetWeightedEff: 0.4}
	if got, _ := q.MinValidRatio(1 << 20); got != 14 {
		t.Fatalf("r_min = %d, want 14", got)
	}
	if r, eff, err = q.MinTaskRatio(1 << 20); err != nil {
		t.Fatal(err)
	}
	checkThresholdContract(t, q, r, eff)
}

// TestThresholdRMinBeyondMax: when r_min = max_g ⌈s_g/O⌉ exceeds maxRatio —
// O tiny, or a station vastly faster than O — the search fails at once with
// the "unreachable" error instead of stepping toward r_min, and a report
// with a target comes back without a MinRatio.
func TestThresholdRMinBeyondMax(t *testing.T) {
	cases := []struct {
		o, j  float64
		group FleetStation
	}{
		{1e-20, 4, FleetStation{P: 0.5, Count: 4}},
		{1, 4e16, FleetStation{P: 0.5, Speed: 1e15, Count: 4}},
	}
	for _, c := range cases {
		done := make(chan struct{})
		go func() {
			defer close(done)
			q := ThresholdQuery{Stations: []FleetStation{c.group}, O: c.o, TargetWeightedEff: 0.5}
			if _, _, err := q.MinTaskRatio(1 << 20); err == nil || !strings.Contains(err.Error(), "unreachable within task ratio 1048576") {
				t.Errorf("O=%v %+v: error %v, want unreachable", c.o, c.group, err)
			}
			v, err := Assess(Fleet{J: c.j, O: c.o, Stations: []FleetStation{c.group}}, 0.5)
			if err != nil || v.MinRatio != 0 {
				t.Errorf("O=%v %+v: Assess min ratio %d, error %v; want 0, nil", c.o, c.group, v.MinRatio, err)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("O=%v %+v: threshold search did not return", c.o, c.group)
		}
	}
}

// checkThresholdContract asserts MinTaskRatio's contract at its answer r:
// r >= r_min, eff(r) >= target and is the reported efficiency, and r = r_min
// or eff(r−1) < target.
func checkThresholdContract(t *testing.T, q ThresholdQuery, r int, eff float64) {
	t.Helper()
	w := Fleet{Stations: q.Stations}.W()
	lo, err := q.MinValidRatio(r)
	if err != nil || r < lo {
		t.Fatalf("%+v: ratio %d below r_min %d", q, r, lo)
	}
	at, err := q.weightedEffAtRatio(float64(r), w)
	if err != nil {
		t.Fatal(err)
	}
	if at != eff || math.IsNaN(eff) || eff < q.TargetWeightedEff {
		t.Fatalf("%+v: ratio %d reports efficiency %v, model %v, target %v", q, r, eff, at, q.TargetWeightedEff)
	}
	if r > lo {
		below, err := q.weightedEffAtRatio(float64(r-1), w)
		if err != nil {
			t.Fatal(err)
		}
		if below >= q.TargetWeightedEff {
			t.Fatalf("%+v: ratio %d − 1 already meets the target (%v >= %v)", q, r, below, q.TargetWeightedEff)
		}
	}
}

// TestMinTaskRatioNonMonotoneCounterexample pins why the contract is not
// "the least ratio": at O = 0.75, util 0.05, W = 8 the trial count
// round(0.75·r) rounds up at r = 47 but not at r = 48, and weighted
// efficiency dips. At a target between the two, 47 is the least ratio
// meeting it, 48 misses and 49 meets again; the search may answer either
// crossing.
func TestMinTaskRatioNonMonotoneCounterexample(t *testing.T) {
	q := ThresholdQuery{Stations: paperStationsO(8, 0.05, 0.75), O: 0.75, TargetWeightedEff: 0.955878}
	e47, err := q.weightedEffAtRatio(47, 8)
	if err != nil {
		t.Fatal(err)
	}
	e48, err := q.weightedEffAtRatio(48, 8)
	if err != nil {
		t.Fatal(err)
	}
	e49, err := q.weightedEffAtRatio(49, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(e47 > e48) || !(e47 >= q.TargetWeightedEff) || !(e48 < q.TargetWeightedEff) || !(e49 >= q.TargetWeightedEff) {
		t.Fatalf("counterexample moved: eff(47) %v, eff(48) %v, eff(49) %v, target %v", e47, e48, e49, q.TargetWeightedEff)
	}
	r, eff, err := q.MinTaskRatio(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	checkThresholdContract(t, q, r, eff)
}

// paperStationsO is the one-group fleet of w stations at owner utilization
// util with owner demand o.
func paperStationsO(w int, util, o float64) []FleetStation {
	return []FleetStation{{P: util / (o * (1 - util)), Count: w}}
}

// TestMinTaskRatioLeastOnIntegralTrials: wherever every trial count r·O/s_g
// is integral (O even, speeds 0.5, 1 and 2), the answer is the least ratio
// meeting the target, found by a linear scan from r_min, over seeded fleets
// of one to four groups.
func TestMinTaskRatioLeastOnIntegralTrials(t *testing.T) {
	rnd := rand.New(rand.NewPCG(16, 2))
	os := []float64{2, 4, 6, 10, 20}
	speeds := []float64{0.5, 1, 2}
	checked := 0
	for i := 0; i < 150; i++ {
		stations := make([]FleetStation, 1+rnd.IntN(4))
		for g := range stations {
			stations[g] = FleetStation{P: 0.002 + 0.03*rnd.Float64(), Speed: speeds[rnd.IntN(3)], Count: 1 + rnd.IntN(20)}
		}
		q := ThresholdQuery{Stations: stations, O: os[rnd.IntN(len(os))]}
		// A target the fleet reaches: a fraction of the way from the
		// efficiency at r_min to its limit.
		w := Fleet{Stations: stations}.W()
		lo, err := q.MinValidRatio(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		base, err := q.weightedEffAtRatio(float64(lo), w)
		if err != nil {
			t.Fatal(err)
		}
		// Fast groups can lift the efficiency above 1, where no target is;
		// a lone station's efficiency is flat in the ratio.
		top, err := q.weightedEffAtRatio(1<<20, w)
		if err != nil {
			t.Fatal(err)
		}
		top = min(top, 1)
		if top-base < 1e-6 {
			continue
		}
		checked++
		q.TargetWeightedEff = base + (top-base)*(0.2+0.7*rnd.Float64())
		r, eff, err := q.MinTaskRatio(1 << 20)
		if err != nil {
			t.Fatalf("fleet %d %+v: %v", i, q, err)
		}
		want := lo
		for ; ; want++ {
			e, err := q.weightedEffAtRatio(float64(want), w)
			if err != nil {
				t.Fatal(err)
			}
			if e >= q.TargetWeightedEff {
				break
			}
		}
		if r != want {
			t.Errorf("fleet %d %+v: ratio %d (weff %v), least ratio meeting the target %d", i, q, r, eff, want)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 150 seeded fleets had a reachable target", checked)
	}
}

// FuzzMinTaskRatio holds the threshold search to its contract on fleets of
// one to four groups with O in (0, 50], speeds in [0.5, 2] and targets in
// (0, 1]: no panic, no NaN efficiency or closed-form guess, and an
// "unreachable" error only when eff(maxRatio) misses the target.
func FuzzMinTaskRatio(f *testing.F) {
	f.Add(uint64(1), uint8(1), 10.0, 0.8)
	f.Add(uint64(2), uint8(3), 0.5, 0.9)
	f.Add(uint64(3), uint8(4), 0.75, 0.955878)
	f.Add(uint64(4), uint8(2), 50.0, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, groups uint8, o, target float64) {
		if !(o > 0) || o > 50 || !(target > 0) || target > 1 {
			t.Skip()
		}
		rnd := rand.New(rand.NewPCG(seed, 16))
		stations := make([]FleetStation, 1+int(groups)%4)
		for g := range stations {
			p := 0.0
			if rnd.IntN(5) > 0 {
				p = 0.2 * rnd.Float64() * rnd.Float64()
			}
			stations[g] = FleetStation{P: p, Speed: 0.5 + 1.5*rnd.Float64(), Count: 1 + rnd.IntN(16)}
		}
		q := ThresholdQuery{Stations: stations, O: o, TargetWeightedEff: target}
		if yLimit, guess := q.ratioGuess(); math.IsNaN(yLimit) || math.IsNaN(guess) || guess < 0 {
			t.Fatalf("%+v: closed-form guess %v, limit %v", q, guess, yLimit)
		}
		const maxRatio = 1 << 12
		r, eff, err := q.MinTaskRatio(maxRatio)
		if err != nil {
			if !strings.Contains(err.Error(), "unreachable") {
				t.Fatalf("%+v: %v", q, err)
			}
			if _, err := q.MinValidRatio(maxRatio); err != nil {
				return
			}
			if _, dedicated := q.dedicated(); dedicated {
				return
			}
			top, err := q.weightedEffAtRatio(maxRatio, Fleet{Stations: stations}.W())
			if err != nil {
				t.Fatal(err)
			}
			if top >= target {
				t.Fatalf("%+v: unreachable, yet eff(%d) = %v meets the target", q, maxRatio, top)
			}
			return
		}
		if _, dedicated := q.dedicated(); dedicated {
			if r != 1 || math.IsNaN(eff) || eff < target {
				t.Fatalf("%+v: dedicated fleet answered %d at %v", q, r, eff)
			}
			return
		}
		checkThresholdContract(t, q, r, eff)
	})
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
