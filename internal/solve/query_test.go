package solve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"feasim/internal/sim"
)

// roundTripQueries is one fully populated fixture per query kind.
func roundTripQueries() []Query {
	return []Query{
		ReportQuery{Scenario: Scenario{
			Name: "rt", J: 1000, W: 10, O: 10, Util: 0.05, Deadline: 150, TargetEff: 0.8, Seed: 7,
		}},
		ThresholdQuery{W: 60, O: 10, Util: 0.1, TargetEff: 0.8, MaxRatio: 512, Seed: 3},
		PartitionQuery{J: 2000, O: 10, Util: 0.05, TargetEff: 0.8, MaxW: 100, Seed: 5},
		DistributionQuery{
			Scenario:  Scenario{Name: "dist", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 11},
			Quantiles: []float64{0.5, 0.99},
			Deadlines: []float64{150, 200},
		},
		ScaledQuery{T: 100, O: 10, Util: 0.1, Ws: []int{1, 10, 100}},
	}
}

// TestQueryEnvelopeRoundTrip marshals every query kind through the JSON
// envelope and requires the parsed value to be deeply equal to the original,
// with the kind discriminator present on the wire.
func TestQueryEnvelopeRoundTrip(t *testing.T) {
	for _, want := range roundTripQueries() {
		t.Run(want.Kind(), func(t *testing.T) {
			if err := want.Validate(); err != nil {
				t.Fatalf("fixture invalid: %v", err)
			}
			data, err := MarshalQuery(want)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), `"kind":"`+want.Kind()+`"`) {
				t.Errorf("envelope missing kind discriminator: %s", data)
			}
			got, err := ParseQuery(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestQueryEnvelopeRejectsBadInput: unknown kinds, missing kinds and unknown
// fields must all fail loudly.
func TestQueryEnvelopeRejectsBadInput(t *testing.T) {
	bad := []struct {
		name string
		json string
	}{
		{"unknown kind", `{"kind": "optimise", "w": 10}`},
		{"missing kind", `{"w": 10, "o": 10}`},
		{"not json", `{"kind":`},
		{"unknown field report", `{"kind": "report", "scenario": {"j": 100, "w": 10, "o": 10}, "wiggle": 1}`},
		{"unknown field threshold", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "jitter": 2}`},
		{"unknown field partition", `{"kind": "partition", "j": 100, "o": 10, "util": 0.1, "target_eff": 0.8, "max_w": 10, "x": 1}`},
		{"unknown field distribution", `{"kind": "distribution", "scenario": {"j": 100, "w": 10, "o": 10}, "quantile": [0.5]}`},
		{"unknown field scaled", `{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1], "maxw": 3}`},
		{"unknown scenario field", `{"kind": "report", "scenario": {"j": 100, "w": 10, "o": 10, "wobble": 1}}`},
		{"invalid threshold", `{"kind": "threshold", "w": 0, "o": 10, "util": 0.1, "target_eff": 0.8}`},
		{"invalid partition", `{"kind": "partition", "j": 100, "o": 10, "util": 0.1, "target_eff": 0.8, "max_w": 0}`},
		{"invalid quantile", `{"kind": "distribution", "scenario": {"j": 100, "w": 10, "o": 10}, "quantiles": [1.5]}`},
		{"invalid scaled ws", `{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [0]}`},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseQuery([]byte(c.json)); err == nil {
				t.Errorf("expected error for %s", c.json)
			}
		})
	}
}

// TestCapabilitiesAndUnsupported requires every (backend, kind) pair to be
// either answerable or refused with an error matching ErrUnsupported, in
// exact agreement with the backend's Capabilities listing.
func TestCapabilitiesAndUnsupported(t *testing.T) {
	ctx := context.Background()
	pr := sim.Protocol{Batches: 3, BatchSize: 20, Level: 0.9}
	solvers := []Solver{
		Analytic{},
		ExactSim{Protocol: pr},
		DES{Protocol: pr, Warmup: 2},
	}
	queries := map[string]Query{
		KindReport:       ReportQuery{Scenario: Scenario{Name: "cap", J: 200, W: 4, O: 10, Util: 0.05, Seed: 1}},
		KindThreshold:    ThresholdQuery{W: 2, O: 10, Util: 0.05, TargetEff: 0.5, Seed: 1},
		KindPartition:    PartitionQuery{J: 200, O: 10, Util: 0.05, TargetEff: 0.5, MaxW: 4, Seed: 1},
		KindDistribution: DistributionQuery{Scenario: Scenario{Name: "cap", J: 200, W: 4, O: 10, Util: 0.05, Seed: 1}},
		KindScaled:       ScaledQuery{T: 50, O: 10, Util: 0.05, Ws: []int{1, 2}},
		KindTimeline: TimelineQuery{
			Scenario: Scenario{
				Name: "cap", J: 200, W: 4, O: 10, Seed: 1,
				Schedule: []PhaseSpec{{Name: "day", Duration: 300, Util: 0.1}, {Name: "night", Duration: 300, Util: 0.01}},
			},
			Epochs:  2,
			Samples: 8,
		},
	}
	for _, sv := range solvers {
		capable := make(map[string]bool)
		for _, k := range sv.Capabilities() {
			capable[k] = true
		}
		for _, kind := range QueryKinds() {
			a, err := sv.Answer(ctx, queries[kind])
			if capable[kind] {
				if err != nil {
					t.Errorf("%s/%s: capable backend errored: %v", sv.Name(), kind, err)
					continue
				}
				if a.Kind() != kind {
					t.Errorf("%s/%s: answer kind %q", sv.Name(), kind, a.Kind())
				}
			} else {
				if !errors.Is(err, ErrUnsupported) {
					t.Errorf("%s/%s: want ErrUnsupported, got %v", sv.Name(), kind, err)
				}
				var ue *UnsupportedError
				if !errors.As(err, &ue) || ue.Backend != sv.Name() || ue.Kind != kind {
					t.Errorf("%s/%s: UnsupportedError should carry the pair, got %v", sv.Name(), kind, err)
				}
			}
		}
	}
}

// TestAnalyticAnswersMatchFlatAPIs pins the query path to the flat functions
// it wraps.
func TestAnalyticAnswersMatchFlatAPIs(t *testing.T) {
	ctx := context.Background()
	a := Analytic{}

	// Threshold vs the conclusions-table solver.
	ta, err := a.Answer(ctx, ThresholdQuery{W: 60, O: 10, Util: 0.1, TargetEff: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	th := ta.(ThresholdAnswer)
	if th.MinRatio < 8 || th.MinRatio > 20 {
		t.Errorf("min task ratio %d outside the paper's plausible band", th.MinRatio)
	}
	if th.AchievedWeff < 0.8 {
		t.Errorf("achieved weff %.4f below target", th.AchievedWeff)
	}
	if th.MinJobDemand != float64(th.MinRatio)*10*60 {
		t.Errorf("min job demand %.0f != ratio*O*W", th.MinJobDemand)
	}

	// Partition: the report at the chosen W must meet the target, and W+1
	// must miss it (maximality).
	pa, err := a.Answer(ctx, PartitionQuery{J: 2000, O: 10, Util: 0.05, TargetEff: 0.8, MaxW: 200})
	if err != nil {
		t.Fatal(err)
	}
	pp := pa.(PartitionAnswer)
	if pp.Report.WeightedEfficiency < 0.8 {
		t.Errorf("partition report weff %.4f below target", pp.Report.WeightedEfficiency)
	}
	next, err := a.Solve(ctx, Scenario{J: 2000, W: pp.W + 1, O: 10, Util: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if next.WeightedEfficiency >= 0.8 {
		t.Errorf("W=%d still meets the target; partition answer %d is not maximal", pp.W+1, pp.W)
	}

	// Distribution vs the exact model distribution: the mean must equal the
	// report's E[job] and the deadline coverage must match DeadlineProb.
	s := Scenario{J: 1000, W: 10, O: 10, Util: 0.1}
	da, err := a.Answer(ctx, DistributionQuery{Scenario: s, Deadlines: []float64{150}})
	if err != nil {
		t.Fatal(err)
	}
	d := da.(DistributionAnswer)
	rep, err := a.Solve(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if diff := d.Mean - rep.EJob; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("distribution mean %.6f != report E[job] %.6f", d.Mean, rep.EJob)
	}
	if len(d.Deadlines) != 1 || d.Deadlines[0].Prob <= 0 || d.Deadlines[0].Prob > 1 {
		t.Errorf("bad deadline coverage: %+v", d.Deadlines)
	}

	// Scaled: W=1 increase-vs-single must be zero and the curve monotone.
	sa, err := a.Answer(ctx, ScaledQuery{T: 100, O: 10, Util: 0.1, Ws: []int{1, 10, 100}})
	if err != nil {
		t.Fatal(err)
	}
	sc := sa.(ScaledAnswer)
	if len(sc.Points) != 3 || sc.Points[0].IncreaseVsSingle != 0 {
		t.Fatalf("bad scaled curve: %+v", sc.Points)
	}
	for i := 1; i < len(sc.Points); i++ {
		if sc.Points[i].EJob < sc.Points[i-1].EJob {
			t.Errorf("scaled E[job] not monotone at %d: %+v", i, sc.Points)
		}
	}
}

// TestQuerySweepSpecJSONRoundTrip checks the nested base envelope and strict
// decoding of the query sweep spec.
func TestQuerySweepSpecJSONRoundTrip(t *testing.T) {
	want := QuerySweepSpec{
		Base:     ThresholdQuery{W: 60, O: 10, TargetEff: 0.8},
		Util:     []float64{0.05, 0.1, 0.2},
		Backends: []string{BackendAnalytic},
		Workers:  2,
		Seed:     9,
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseQuerySweep(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, err := ParseQuerySweep([]byte(`{"base": {"kind": "bogus"}}`)); err == nil {
		t.Error("unknown base kind should fail")
	}
	if _, err := ParseQuerySweep([]byte(`{"base": {"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1]}, "frobnicate": 1}`)); err == nil {
		t.Error("unknown spec field should fail")
	}
	if _, err := ParseQuerySweep([]byte(`{"w": [1]}`)); err == nil {
		t.Error("missing base should fail")
	}
}

// TestQuerySweepAxesPerKind checks which axes apply to which kinds, and that
// inapplicable axes are rejected loudly.
func TestQuerySweepAxesPerKind(t *testing.T) {
	ctx := context.Background()

	// Threshold grid over utilization: one bisection per grid point.
	res, err := CollectQueries(ctx, QuerySweepSpec{
		Base: ThresholdQuery{W: 20, O: 10, TargetEff: 0.8},
		Util: []float64{0.05, 0.1},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	r05 := res[0].Answer.(ThresholdAnswer)
	r10 := res[1].Answer.(ThresholdAnswer)
	if r05.MinRatio >= r10.MinRatio {
		t.Errorf("threshold should grow with utilization: %d @5%% vs %d @10%%", r05.MinRatio, r10.MinRatio)
	}

	// The task_ratio axis is the threshold query's search variable.
	if _, err := (QuerySweepSpec{
		Base:      ThresholdQuery{W: 20, O: 10, TargetEff: 0.8, Util: 0.1},
		TaskRatio: []float64{5, 10},
	}).Points(); err == nil {
		t.Error("task_ratio axis on a threshold grid should fail")
	}

	// The w axis does not apply to scaled queries.
	if _, err := (QuerySweepSpec{
		Base: ScaledQuery{T: 100, O: 10, Util: 0.1, Ws: []int{1, 10}},
		W:    []int{1, 2},
	}).Points(); err == nil {
		t.Error("w axis on a scaled grid should fail")
	}

	// Scenario axes apply to distribution queries like report queries.
	dres, err := CollectQueries(ctx, QuerySweepSpec{
		Base: DistributionQuery{Scenario: Scenario{J: 1000, O: 10, Util: 0.1, W: 1}},
		W:    []int{5, 10},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dres) != 2 {
		t.Fatalf("got %d results, want 2", len(dres))
	}
	for i, want := range []int{5, 10} {
		q := dres[i].Point.Query.(DistributionQuery)
		if q.Scenario.W != want {
			t.Errorf("point %d: W=%d, want %d", i, q.Scenario.W, want)
		}
	}
}

// TestQuerySweepDedupAcrossKinds: repeated analytic points of non-report
// kinds must be served from the kind-keyed cache.
func TestQuerySweepDedupAcrossKinds(t *testing.T) {
	// Two identical utils expand to identical threshold queries (the seed is
	// excluded from the analytic dedup key).
	res, err := CollectQueries(context.Background(), QuerySweepSpec{
		Base:    ThresholdQuery{W: 20, O: 10, TargetEff: 0.8},
		Util:    []float64{0.1, 0.1},
		Workers: 1, // serial so cache hits are deterministic
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	cached := 0
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Point.Index, r.Err)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("cache served %d points, want 1", cached)
	}
}

// TestQuerySweepCachedDistributionKeepsOwnScenario: the analytic backend
// ignores OwnerCV2, so an OwnerCV2 axis dedups to one solve — but each
// cached DistributionAnswer must still report its own point's scenario
// (name, seed, cv2), not the sibling's that populated the cache.
func TestQuerySweepCachedDistributionKeepsOwnScenario(t *testing.T) {
	res, err := CollectQueries(context.Background(), QuerySweepSpec{
		Base:     DistributionQuery{Scenario: Scenario{J: 1000, W: 10, O: 10, Util: 0.1}},
		OwnerCV2: []float64{0, 4, 16},
		Workers:  1,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	cached := 0
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Point.Index, r.Err)
		}
		if r.Cached {
			cached++
		}
		want := r.Point.Query.(DistributionQuery).Scenario
		got := r.Answer.(DistributionAnswer).Scenario
		if !reflect.DeepEqual(got, want) {
			t.Errorf("point %d: answer scenario %+v, want the point's own %+v", r.Point.Index, got, want)
		}
	}
	if cached != 2 {
		t.Errorf("cache served %d points, want 2", cached)
	}
}
