package feasim_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"feasim"
)

// The cross-backend parity suite: one canonical query per kind, fanned
// across every backend. A (backend, kind) pair advertised in Capabilities
// must agree with the analytic answer within the stated tolerance; a pair
// *not* advertised must refuse with ErrUnsupported carrying the pair — so
// capability claims and behavior cannot drift apart in either direction.

// parityPr keeps the simulated probes fast while leaving the confidence
// intervals meaningful.
var parityPr = feasim.Protocol{Batches: 8, BatchSize: 80, Level: 0.90}

// paritySolvers builds the full backend set under the parity protocol.
func paritySolvers() []feasim.Solver {
	return []feasim.Solver{
		feasim.NewAnalyticSolver(),
		feasim.NewExactSimSolver(parityPr),
		feasim.NewDESSolver(parityPr, 10),
	}
}

// parityCheck compares one backend's answer against the analytic answer for
// the same query.
type parityCheck func(t *testing.T, backend string, got, analytic feasim.Answer)

// parityQueries is the canonical query-per-kind table. The scenario keeps
// T = J/W integral so the exact simulator can answer, and stays small so
// the empirical bisections and batch runs are cheap.
func parityQueries() map[string]struct {
	query feasim.Query
	check parityCheck
} {
	sc := feasim.Scenario{Name: "parity", J: 400, W: 4, O: 10, Util: 0.05, Seed: 1993}
	return map[string]struct {
		query feasim.Query
		check parityCheck
	}{
		feasim.KindReport: {
			query: feasim.ReportQuery{Scenario: sc},
			check: func(t *testing.T, backend string, got, analytic feasim.Answer) {
				g, a := got.(feasim.ReportAnswer).Report, analytic.(feasim.ReportAnswer).Report
				if g.Backend != backend {
					t.Errorf("report backend %q", g.Backend)
				}
				if backend == feasim.BackendAnalytic {
					return
				}
				if rel := math.Abs(g.EJob-a.EJob) / a.EJob; rel > 0.05 {
					t.Errorf("E[job] %.3f vs analytic %.3f: off %.1f%%", g.EJob, a.EJob, rel*100)
				}
				if ci := g.WeffCI.Widen(0.75); !ci.Contains(a.WeightedEfficiency) {
					t.Errorf("weff CI [%.4f, %.4f] misses analytic %.4f", ci.Lo, ci.Hi, a.WeightedEfficiency)
				}
				if g.Samples == 0 {
					t.Error("simulated report should carry a sample count")
				}
			},
		},
		feasim.KindThreshold: {
			query: feasim.ThresholdQuery{W: 4, O: 10, Util: 0.05, TargetEff: 0.7, Seed: 1993},
			check: func(t *testing.T, backend string, got, analytic feasim.Answer) {
				g, a := got.(feasim.ThresholdAnswer), analytic.(feasim.ThresholdAnswer)
				if d := g.MinRatio - a.MinRatio; d < -1 || d > 1 {
					t.Errorf("min ratio %d vs analytic %d: off by more than one step", g.MinRatio, a.MinRatio)
				}
				if g.MinJobDemand != float64(g.MinRatio)*10*4 {
					t.Errorf("min job demand %.0f != ratio·O·W", g.MinJobDemand)
				}
				if backend != feasim.BackendAnalytic && (g.Probes == 0 || g.Samples == 0) {
					t.Errorf("empirical answer should report bisection cost: probes=%d samples=%d", g.Probes, g.Samples)
				}
			},
		},
		feasim.KindPartition: {
			query: feasim.PartitionQuery{J: 400, O: 10, Util: 0.05, TargetEff: 0.5, MaxW: 8, Seed: 7},
			check: func(t *testing.T, backend string, got, analytic feasim.Answer) {
				g, a := got.(feasim.PartitionAnswer), analytic.(feasim.PartitionAnswer)
				if g.W < 1 || g.W > 8 {
					t.Fatalf("chosen W=%d outside [1, 8]", g.W)
				}
				if d := g.W - a.W; d < -2 || d > 2 {
					t.Errorf("right-size W=%d vs analytic %d: too far apart", g.W, a.W)
				}
				if g.Report.WeightedEfficiency < 0.5 {
					t.Errorf("report at chosen W=%d has weff %.4f below target", g.W, g.Report.WeightedEfficiency)
				}
			},
		},
		feasim.KindDistribution: {
			query: feasim.DistributionQuery{
				Scenario:  sc,
				Quantiles: []float64{0.5, 0.9},
				Deadlines: []float64{110},
			},
			check: func(t *testing.T, backend string, got, analytic feasim.Answer) {
				g, a := got.(feasim.DistributionAnswer), analytic.(feasim.DistributionAnswer)
				if backend == feasim.BackendAnalytic {
					return
				}
				if rel := math.Abs(g.Mean-a.Mean) / a.Mean; rel > 0.05 {
					t.Errorf("mean %.3f vs analytic %.3f: off %.1f%%", g.Mean, a.Mean, rel*100)
				}
				for i := range a.Quantiles {
					// The job time lives on the lattice T + k·O, so empirical
					// quantiles should land within one O step.
					if d := math.Abs(g.Quantiles[i].Time - a.Quantiles[i].Time); d > 10 {
						t.Errorf("q%g: empirical %.1f vs exact %.1f", a.Quantiles[i].Q*100, g.Quantiles[i].Time, a.Quantiles[i].Time)
					}
				}
				if d := math.Abs(g.Deadlines[0].Prob - a.Deadlines[0].Prob); d > 0.1 {
					t.Errorf("P(done by 110): empirical %.3f vs exact %.3f", g.Deadlines[0].Prob, a.Deadlines[0].Prob)
				}
				if g.Samples == 0 {
					t.Error("empirical distribution should carry a sample count")
				}
			},
		},
		feasim.KindTimeline: {
			query: feasim.TimelineQuery{
				Scenario: feasim.Scenario{
					Name: "parity", J: 400, W: 4, O: 10, Seed: 1993, TargetEff: 0.5,
					Schedule: []feasim.PhaseSpec{
						{Name: "day", Duration: 600, Util: 0.1},
						{Name: "night", Duration: 600, Util: 0.01},
					},
				},
				Samples: 120,
			},
			check: func(t *testing.T, backend string, got, analytic feasim.Answer) {
				g, a := got.(feasim.TimelineAnswer), analytic.(feasim.TimelineAnswer)
				if g.Backend != backend {
					t.Errorf("timeline backend %q", g.Backend)
				}
				if g.CycleLength != 1200 {
					t.Errorf("cycle length %v, want 1200", g.CycleLength)
				}
				if len(g.Epochs) != len(a.Epochs) {
					t.Fatalf("%d epochs vs analytic %d", len(g.Epochs), len(a.Epochs))
				}
				for i, ep := range g.Epochs {
					ref := a.Epochs[i]
					if ep.Start != ref.Start || ep.Phase != ref.Phase {
						t.Fatalf("epoch %d launch (%v, %q) vs analytic (%v, %q)", i, ep.Start, ep.Phase, ref.Start, ref.Phase)
					}
					if ep.Feasible == nil {
						t.Errorf("epoch %d: target_eff set but no feasibility verdict", i)
					}
					if backend == feasim.BackendAnalytic {
						continue
					}
					if rel := math.Abs(ep.EJob-ref.EJob) / ref.EJob; rel > 0.06 {
						t.Errorf("epoch %d (%s): E[job] %.3f vs quasi-static %.3f: off %.1f%%", i, ep.Phase, ep.EJob, ref.EJob, rel*100)
					}
					if ep.Samples == 0 {
						t.Errorf("epoch %d: replayed answer should carry a sample count", i)
					}
				}
			},
		},
		feasim.KindScaled: {
			query: feasim.ScaledQuery{T: 100, O: 10, Util: 0.05, Ws: []int{1, 4, 16}},
			check: func(t *testing.T, backend string, got, analytic feasim.Answer) {
				g := got.(feasim.ScaledAnswer)
				if len(g.Points) != 3 || g.Points[0].IncreaseVsSingle != 0 {
					t.Fatalf("bad scaled curve: %+v", g.Points)
				}
				for i := 1; i < len(g.Points); i++ {
					if g.Points[i].EJob < g.Points[i-1].EJob {
						t.Errorf("scaled E[job] not monotone at %d", i)
					}
				}
			},
		},
	}
}

// TestBackendKindParityMatrix drives every (backend, kind) cell of the
// capability matrix.
func TestBackendKindParityMatrix(t *testing.T) {
	ctx := context.Background()
	table := parityQueries()
	analytic := feasim.NewAnalyticSolver()

	// Analytic reference answers, one per kind (the analytic backend
	// advertises every kind; the suite relies on that).
	refs := make(map[string]feasim.Answer, len(table))
	for kind, c := range table {
		a, err := analytic.Answer(ctx, c.query)
		if err != nil {
			t.Fatalf("analytic reference for %s: %v", kind, err)
		}
		refs[kind] = a
	}

	for _, sv := range paritySolvers() {
		capable := make(map[string]bool)
		for _, k := range sv.Capabilities() {
			capable[k] = true
		}
		for _, kind := range feasim.QueryKinds() {
			sv, kind := sv, kind
			t.Run(sv.Name()+"/"+kind, func(t *testing.T) {
				c, ok := table[kind]
				if !ok {
					t.Fatalf("no canonical query for kind %q — extend the parity table", kind)
				}
				got, err := sv.Answer(ctx, c.query)
				if capable[kind] {
					if err != nil {
						t.Fatalf("advertised pair failed: %v", err)
					}
					if got.Kind() != kind {
						t.Fatalf("answer kind %q", got.Kind())
					}
					c.check(t, sv.Name(), got, refs[kind])
					return
				}
				// Not advertised: the pair must actually refuse, with the
				// typed error naming it.
				if !errors.Is(err, feasim.ErrUnsupported) {
					t.Fatalf("unadvertised pair: want ErrUnsupported, got answer=%v err=%v", got, err)
				}
				var ue *feasim.UnsupportedError
				if !errors.As(err, &ue) || ue.Backend != sv.Name() || ue.Kind != kind {
					t.Errorf("UnsupportedError should carry (%s, %s), got %v", sv.Name(), kind, err)
				}
			})
		}
	}
}

// parityFleet is the canonical mixed fleet: two availability classes over
// four stations, small enough for cheap DES batches.
func parityFleet() feasim.Scenario {
	return feasim.Scenario{
		Name: "parity-het", J: 400, O: 10, Seed: 1993,
		Stations: []feasim.StationSpec{
			{P: 0.03, Count: 2},
			{P: 0.08, Count: 2},
		},
	}
}

// TestHeterogeneousParity checks the mixed fleet across the backends that
// claim to handle it: the DES answer must track the analytic fleet kernel.
func TestHeterogeneousParity(t *testing.T) {
	ctx := context.Background()
	sc := parityFleet()
	analytic := feasim.NewAnalyticSolver()
	des := feasim.NewDESSolver(parityPr, 10)

	aAns, err := analytic.Answer(ctx, feasim.ReportQuery{Scenario: sc})
	if err != nil {
		t.Fatalf("analytic heterogeneous report: %v", err)
	}
	dAns, err := des.Answer(ctx, feasim.ReportQuery{Scenario: sc})
	if err != nil {
		t.Fatalf("des heterogeneous report: %v", err)
	}
	a, d := aAns.(feasim.ReportAnswer).Report, dAns.(feasim.ReportAnswer).Report
	if rel := math.Abs(d.EJob-a.EJob) / a.EJob; rel > 0.08 {
		t.Errorf("mixed-fleet E[job]: des %.3f vs analytic %.3f, off %.1f%%", d.EJob, a.EJob, rel*100)
	}
	if ci := d.WeffCI.Widen(0.75); !ci.Contains(a.WeightedEfficiency) {
		t.Errorf("mixed-fleet weff CI [%.4f, %.4f] misses analytic %.4f", ci.Lo, ci.Hi, a.WeightedEfficiency)
	}

	// Threshold over the same mix as a station template: the empirical
	// bisection should land within one ratio step of the fleet kernel.
	tq := feasim.ThresholdQuery{
		W: 4, O: 10, TargetEff: 0.7, Seed: 1993,
		Stations: []feasim.StationSpec{
			{P: 0.03, Count: 2},
			{P: 0.08, Count: 2},
		},
	}
	aThr, err := analytic.Answer(ctx, tq)
	if err != nil {
		t.Fatalf("analytic heterogeneous threshold: %v", err)
	}
	dThr, err := des.Answer(ctx, tq)
	if err != nil {
		t.Fatalf("des heterogeneous threshold: %v", err)
	}
	ga, gd := aThr.(feasim.ThresholdAnswer), dThr.(feasim.ThresholdAnswer)
	if diff := gd.MinRatio - ga.MinRatio; diff < -1 || diff > 1 {
		t.Errorf("mixed-fleet min ratio: des %d vs analytic %d, off by more than one step", gd.MinRatio, ga.MinRatio)
	}
}

// TestExactRefusesHeterogeneous pins the exact backend's typed refusal: its
// batch-Pow ladder is a single-probability kernel, so heterogeneous inputs
// must surface an UnsupportedError naming the reason instead of a silent
// wrong answer.
func TestExactRefusesHeterogeneous(t *testing.T) {
	ctx := context.Background()
	exact := feasim.NewExactSimSolver(parityPr)
	sc := parityFleet()

	queries := map[string]feasim.Query{
		feasim.KindReport:       feasim.ReportQuery{Scenario: sc},
		feasim.KindDistribution: feasim.DistributionQuery{Scenario: sc, Quantiles: []float64{0.5}},
		feasim.KindThreshold: feasim.ThresholdQuery{
			W: 4, O: 10, TargetEff: 0.7, Seed: 1993,
			Stations: []feasim.StationSpec{{P: 0.03, Count: 2}, {P: 0.08, Count: 2}},
		},
	}
	for kind, q := range queries {
		_, err := exact.Answer(ctx, q)
		if !errors.Is(err, feasim.ErrUnsupported) {
			t.Fatalf("%s: want ErrUnsupported, got %v", kind, err)
		}
		var ue *feasim.UnsupportedError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: want *UnsupportedError, got %v", kind, err)
		}
		if ue.Backend != feasim.BackendExact || ue.Kind != kind || ue.Detail != "heterogeneous fleets" {
			t.Errorf("%s: UnsupportedError carries (%s, %s, %q), want (%s, %s, %q)",
				kind, ue.Backend, ue.Kind, ue.Detail, feasim.BackendExact, kind, "heterogeneous fleets")
		}
	}
}

// TestDegenerateFleetBitExact pins the collapse contract: a fleet whose
// stations all resolve to the same (p, speed) must reproduce the aggregate
// homogeneous answer bit-for-bit, whatever the spelling — split groups,
// util-vs-p forms, or explicit reference speed — for every analytic kind a
// fleet can ask: report and distribution over the scenario's stations, and
// the threshold, partition and scaled searches over a station template.
func TestDegenerateFleetBitExact(t *testing.T) {
	ctx := context.Background()
	analytic := feasim.NewAnalyticSolver()
	hom := feasim.Scenario{Name: "parity", J: 400, W: 4, O: 10, Util: 0.05, Seed: 1993}

	// Fleet spellings of hom's four stations, for the scenario kinds.
	fleets := map[string][]feasim.StationSpec{
		"one group":   {{Util: 0.05, Count: 4}},
		"split 2+2":   {{Util: 0.05, Count: 2}, {Util: 0.05, Count: 2}},
		"split 1+3":   {{Util: 0.05, Count: 1}, {Util: 0.05, Count: 3}},
		"unit speed":  {{Util: 0.05, Speed: 1, Count: 4}},
		"unit counts": {{Util: 0.05}, {Util: 0.05}, {Util: 0.05}, {Util: 0.05}},
	}
	// Template spellings of the aggregate util, for the search kinds: any
	// one-group template tiles to the same fleet at every size.
	templates := map[string][]feasim.StationSpec{
		"one station": {{Util: 0.05}},
		"three":       {{Util: 0.05, Count: 3}},
		"split 1+2":   {{Util: 0.05, Count: 1}, {Util: 0.05, Count: 2}},
		"unit speed":  {{Util: 0.05, Speed: 1}},
	}
	// stripEcho clears what legitimately differs between spellings: the
	// echoed query scenario and the wall-clock time.
	stripEcho := func(a feasim.Answer) feasim.Answer {
		switch v := a.(type) {
		case feasim.ReportAnswer:
			v.Report.Scenario, v.Report.Elapsed = feasim.Scenario{}, 0
			return v
		case feasim.PartitionAnswer:
			v.Report.Scenario, v.Report.Elapsed = feasim.Scenario{}, 0
			return v
		case feasim.DistributionAnswer:
			v.Scenario = feasim.Scenario{}
			return v
		}
		return a
	}
	type row struct {
		aggregate feasim.Query
		spelled   func(stations []feasim.StationSpec) feasim.Query
		spellings map[string][]feasim.StationSpec
	}
	rows := map[string]row{
		feasim.KindReport: {
			aggregate: feasim.ReportQuery{Scenario: hom},
			spelled: func(st []feasim.StationSpec) feasim.Query {
				return feasim.ReportQuery{Scenario: feasim.Scenario{Name: "parity", J: 400, O: 10, Seed: 1993, Stations: st}}
			},
			spellings: fleets,
		},
		feasim.KindDistribution: {
			aggregate: feasim.DistributionQuery{Scenario: hom, Deadlines: []float64{120, 150}},
			spelled: func(st []feasim.StationSpec) feasim.Query {
				return feasim.DistributionQuery{
					Scenario:  feasim.Scenario{Name: "parity", J: 400, O: 10, Seed: 1993, Stations: st},
					Deadlines: []float64{120, 150},
				}
			},
			spellings: fleets,
		},
		feasim.KindThreshold: {
			aggregate: feasim.ThresholdQuery{W: 60, O: 10, Util: 0.05, TargetEff: 0.8},
			spelled: func(st []feasim.StationSpec) feasim.Query {
				return feasim.ThresholdQuery{W: 60, O: 10, TargetEff: 0.8, Stations: st}
			},
			spellings: templates,
		},
		feasim.KindPartition: {
			aggregate: feasim.PartitionQuery{J: 4000, O: 10, Util: 0.05, TargetEff: 0.8, MaxW: 64},
			spelled: func(st []feasim.StationSpec) feasim.Query {
				return feasim.PartitionQuery{J: 4000, O: 10, TargetEff: 0.8, MaxW: 64, Stations: st}
			},
			spellings: templates,
		},
		feasim.KindScaled: {
			aggregate: feasim.ScaledQuery{T: 100, O: 10, Util: 0.05, Ws: []int{1, 4, 16, 100}},
			spelled: func(st []feasim.StationSpec) feasim.Query {
				return feasim.ScaledQuery{T: 100, O: 10, Ws: []int{1, 4, 16, 100}, Stations: st}
			},
			spellings: templates,
		},
	}
	for kind, r := range rows {
		ref, err := analytic.Answer(ctx, r.aggregate)
		if err != nil {
			t.Fatalf("%s: homogeneous reference: %v", kind, err)
		}
		want := stripEcho(ref)
		for name, stations := range r.spellings {
			ans, err := analytic.Answer(ctx, r.spelled(stations))
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			if got := stripEcho(ans); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: degenerate fleet answer %+v differs from homogeneous %+v", kind, name, got, want)
			}
		}
	}
}

// TestCapabilityListsAreExact pins the advertised matrix itself, so a
// capability added or dropped without updating the other layers (CLI docs,
// serve taxonomy, this suite) fails loudly.
func TestCapabilityListsAreExact(t *testing.T) {
	want := map[string][]string{
		feasim.BackendAnalytic: {feasim.KindReport, feasim.KindThreshold, feasim.KindPartition, feasim.KindDistribution, feasim.KindScaled, feasim.KindTimeline},
		feasim.BackendExact:    {feasim.KindReport, feasim.KindThreshold, feasim.KindDistribution},
		feasim.BackendDES:      {feasim.KindReport, feasim.KindThreshold, feasim.KindPartition, feasim.KindDistribution, feasim.KindTimeline},
	}
	for _, sv := range paritySolvers() {
		got := sv.Capabilities()
		w := want[sv.Name()]
		if len(got) != len(w) {
			t.Errorf("%s capabilities %v, want %v", sv.Name(), got, w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s capabilities %v, want %v", sv.Name(), got, w)
				break
			}
		}
	}
}
