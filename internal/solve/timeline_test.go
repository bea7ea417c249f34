package solve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"feasim/internal/sim"
	"feasim/internal/timeline"
)

func phasedScenario(phases ...PhaseSpec) Scenario {
	return Scenario{Name: "tl", J: 400, W: 4, O: 10, Seed: 42, Schedule: phases}
}

// TestTimelineParityMatrix is the quasi-static-vs-replay parity table: the
// analytic walker and the DES phased-station replay must agree per epoch
// within tolerance, across schedule shapes — including the single-phase
// schedule, which must reproduce the stationary report answer exactly.
func TestTimelineParityMatrix(t *testing.T) {
	ctx := context.Background()
	des := DES{Protocol: sim.Protocol{Batches: 4, BatchSize: 30, Level: 0.9}}
	cases := []struct {
		name     string
		schedule []PhaseSpec
		trace    []PhaseSpec
		epochs   int
		tol      float64
	}{
		{
			name:     "single-phase",
			schedule: []PhaseSpec{{Name: "flat", Duration: 300, Util: 0.05}},
			epochs:   3,
			tol:      0.06,
		},
		{
			name: "workday",
			schedule: []PhaseSpec{
				{Name: "day", Duration: 600, Util: 0.1},
				{Name: "night", Duration: 600, Util: 0.01},
			},
			tol: 0.06,
		},
		{
			name: "three-phase",
			schedule: []PhaseSpec{
				{Name: "morning", Duration: 480, Util: 0.08},
				{Name: "afternoon", Duration: 480, Util: 0.15},
				{Name: "night", Duration: 480, Util: 0.01},
			},
			epochs: 6,
			tol:    0.08,
		},
		{
			name: "trace",
			trace: []PhaseSpec{
				{Name: "burst", Duration: 120, Util: 0.2},
				{Name: "calm", Duration: 600, Util: 0.02},
			},
			epochs: 4,
			tol:    0.08,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := Scenario{Name: "tl/" + c.name, J: 400, W: 4, O: 10, Seed: 42, Schedule: c.schedule, Trace: c.trace}
			q := TimelineQuery{Scenario: sc, Epochs: c.epochs, Samples: 160}
			aAns, err := Analytic{}.Answer(ctx, q)
			if err != nil {
				t.Fatalf("analytic: %v", err)
			}
			dAns, err := des.Answer(ctx, q)
			if err != nil {
				t.Fatalf("des: %v", err)
			}
			qa, da := aAns.(TimelineAnswer), dAns.(TimelineAnswer)
			if len(qa.Epochs) == 0 || len(qa.Epochs) != len(da.Epochs) {
				t.Fatalf("epoch counts: analytic %d, des %d", len(qa.Epochs), len(da.Epochs))
			}
			for i := range qa.Epochs {
				ae, de := qa.Epochs[i], da.Epochs[i]
				if ae.Start != de.Start || ae.Phase != de.Phase || ae.Util != de.Util {
					t.Fatalf("epoch %d launch mismatch: (%v,%q,%v) vs (%v,%q,%v)",
						i, ae.Start, ae.Phase, ae.Util, de.Start, de.Phase, de.Util)
				}
				if rel := math.Abs(de.EJob-ae.EJob) / ae.EJob; rel > c.tol {
					t.Errorf("epoch %d (start %v, %s): replay E[job] %.3f vs quasi-static %.3f, off %.1f%% (tol %.0f%%)",
						i, ae.Start, ae.Phase, de.EJob, ae.EJob, rel*100, c.tol*100)
				}
				if de.Samples != 160 {
					t.Errorf("epoch %d: %d samples, want 160", i, de.Samples)
				}
				if !de.EJobCI.Zero() && !(de.EJobCI.Lo <= de.EJob && de.EJob <= de.EJobCI.Hi) {
					t.Errorf("epoch %d: mean %v outside its own CI %+v", i, de.EJob, de.EJobCI)
				}
			}
		})
	}
}

// TestTimelineSinglePhaseIsStationary pins the acceptance criterion: a
// single-phase schedule reproduces the stationary report's E[job] exactly —
// bit-for-bit, not within tolerance.
func TestTimelineSinglePhaseIsStationary(t *testing.T) {
	ctx := context.Background()
	stationary, err := Analytic{}.Solve(ctx, Scenario{Name: "flat", J: 400, W: 4, O: 10, Util: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	q := TimelineQuery{
		Scenario: phasedScenario(PhaseSpec{Name: "flat", Duration: 777, Util: 0.05}),
		Epochs:   5,
	}
	a, err := Analytic{}.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ans := a.(TimelineAnswer)
	if len(ans.Epochs) != 5 {
		t.Fatalf("%d epochs", len(ans.Epochs))
	}
	for i, ep := range ans.Epochs {
		if ep.EJob != stationary.EJob {
			t.Fatalf("epoch %d: timeline E[job] %v != stationary %v", i, ep.EJob, stationary.EJob)
		}
		if ep.WeightedEfficiency != stationary.WeightedEfficiency {
			t.Fatalf("epoch %d: weff %v != stationary %v", i, ep.WeightedEfficiency, stationary.WeightedEfficiency)
		}
	}
}

// TestScenarioScheduleRoundTrip pins the JSON wire form of schedule/trace
// scenarios: decode(encode(s)) == s, strict decoding, phases preserved in
// order.
func TestScenarioScheduleRoundTrip(t *testing.T) {
	cases := []Scenario{
		phasedScenario(
			PhaseSpec{Name: "day", Duration: 480, Util: 0.3},
			PhaseSpec{Name: "night", Duration: 960, Util: 0.02},
		),
		{Name: "traced", J: 200, W: 2, O: 5, Trace: []PhaseSpec{
			{Duration: 60, Util: 0.5},
			{Name: "tail", Duration: 600, Util: 0.01},
		}},
	}
	for _, sc := range cases {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("round-trip of %s: %v", data, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round-trip changed the scenario:\n in: %+v\nout: %+v", sc, back)
		}
	}
}

// TestTimelineQueryEnvelopeRoundTrip does the same for the query envelope.
func TestTimelineQueryEnvelopeRoundTrip(t *testing.T) {
	q := TimelineQuery{
		Scenario: phasedScenario(
			PhaseSpec{Name: "day", Duration: 480, Util: 0.25},
			PhaseSpec{Name: "night", Duration: 960, Util: 0.01},
		),
		Start:   100,
		Horizon: 1440,
		Epochs:  12,
		Samples: 64,
	}
	data, err := MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"timeline"`) {
		t.Fatalf("envelope missing kind: %s", data)
	}
	back, err := ParseQuery(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, q) {
		t.Fatalf("round-trip changed the query:\n in: %+v\nout: %+v", q, back)
	}
}

// TestPhasedScenarioValidation pins the rejection catalogue: the error for
// each contradictory phased form names the problem.
func TestPhasedScenarioValidation(t *testing.T) {
	ok := phasedScenario(PhaseSpec{Name: "day", Duration: 100, Util: 0.1})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid phased scenario rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"zero duration", func(s *Scenario) { s.Schedule[0].Duration = 0 }, "duration must be positive"},
		{"negative duration", func(s *Scenario) { s.Schedule[0].Duration = -3 }, "duration must be positive"},
		{"util at one", func(s *Scenario) { s.Schedule[0].Util = 1 }, "util must be in [0,1)"},
		{"schedule and trace", func(s *Scenario) { s.Trace = []PhaseSpec{{Duration: 1, Util: 0}} }, "pick one timeline form"},
		{"schedule plus util", func(s *Scenario) { s.Util = 0.2 }, "phases define the owner activity"},
		{"schedule plus p", func(s *Scenario) { s.P = 0.01 }, "phases define the owner activity"},
		{"schedule plus stations", func(s *Scenario) {
			s.Stations = []StationSpec{{OwnerThink: "det:50", OwnerDemand: "det:5"}}
		}, "schedule defines the owner workload"},
		{"schedule plus task_demand", func(s *Scenario) { s.TaskDemand = "det:100" }, "task_demand is not supported"},
		{"schedule plus owner_cv2", func(s *Scenario) { s.OwnerCV2 = 4 }, "deterministic bursts"},
		{"schedule plus deadline", func(s *Scenario) { s.Deadline = 100 }, "expected completion only"},
		{"no job", func(s *Scenario) { s.J = 0 }, "j > 0"},
		{"no stations", func(s *Scenario) { s.W = 0 }, "w >= 1"},
		{"no owner demand", func(s *Scenario) { s.O = 0 }, "o must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := phasedScenario(PhaseSpec{Name: "day", Duration: 100, Util: 0.1})
			c.mut(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestPhasedScenarioRefusesStationaryPaths pins that every stationary
// answer path fails loudly on a phased scenario instead of silently
// averaging the timeline away.
func TestPhasedScenarioRefusesStationaryPaths(t *testing.T) {
	ctx := context.Background()
	sc := phasedScenario(PhaseSpec{Name: "day", Duration: 100, Util: 0.1})
	if _, err := sc.Params(); err == nil || !strings.Contains(err.Error(), "timeline queries") {
		t.Fatalf("Params: %v", err)
	}
	for _, backend := range Backends() {
		sv, err := NewSolver(backend, Options{Protocol: sim.Protocol{Batches: 2, BatchSize: 5, Level: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Answer(ctx, ReportQuery{Scenario: sc}); err == nil {
			t.Errorf("%s report answered a phased scenario", backend)
		}
	}
}

// TestTimelineQueryValidation covers the query-level parameter checks.
func TestTimelineQueryValidation(t *testing.T) {
	base := TimelineQuery{Scenario: phasedScenario(PhaseSpec{Duration: 100, Util: 0.1})}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*TimelineQuery)
	}{
		{"stationary scenario", func(q *TimelineQuery) { q.Scenario = Scenario{J: 100, W: 1, O: 10, Util: 0.1} }},
		{"negative start", func(q *TimelineQuery) { q.Start = -1 }},
		{"negative horizon", func(q *TimelineQuery) { q.Horizon = -1 }},
		{"negative epochs", func(q *TimelineQuery) { q.Epochs = -1 }},
		{"negative samples", func(q *TimelineQuery) { q.Samples = -1 }},
	}
	for _, c := range cases {
		q := base
		c.mut(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestTimelineEpochCap: a timeline answer covers at most
// timeline.MaxEpochs launch offsets, whether asked for by count or implied
// by a long horizon at epochs 0, and both backends refuse before
// allocating them. Before the cap a billion epochs attempted an 8 GB
// allocation that no recovery can catch.
func TestTimelineEpochCap(t *testing.T) {
	ctx := context.Background()
	base := TimelineQuery{Scenario: phasedScenario(
		PhaseSpec{Name: "day", Duration: 480, Util: 0.2},
		PhaseSpec{Name: "night", Duration: 960, Util: 0.01},
	)}
	byCount := base
	byCount.Epochs = 1_000_000_000
	byHorizon := base
	byHorizon.Horizon = 1440 * timeline.MaxEpochs // two boundaries per cycle
	for _, q := range []TimelineQuery{byCount, byHorizon} {
		if err := q.Validate(); err != nil {
			t.Fatalf("the envelope itself is valid: %v", err)
		}
		for _, s := range []Solver{Analytic{}, DES{}} {
			ans, err := s.Answer(ctx, q)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(timeline.MaxEpochs)) {
				t.Errorf("%s, epochs %d horizon %v: got %v, %v; want the cap error", s.Name(), q.Epochs, q.Horizon, ans, err)
			}
		}
	}
	// Right at the cap the answer is whole.
	atCap := base
	atCap.Epochs = timeline.MaxEpochs
	ans, err := Analytic{}.Answer(ctx, atCap)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ans.(TimelineAnswer).Epochs); n != timeline.MaxEpochs {
		t.Fatalf("%d epochs at the cap", n)
	}
}

// TestTimelineDedupAndCache pins the analytic cache identity: name and seed
// are excluded (sibling hits rebind their own scenario), the phases are
// included (different schedules never share an answer).
func TestTimelineDedupAndCache(t *testing.T) {
	ctx := context.Background()
	day := PhaseSpec{Name: "day", Duration: 480, Util: 0.2}
	night := PhaseSpec{Name: "night", Duration: 960, Util: 0.01}
	q1 := TimelineQuery{Scenario: phasedScenario(day, night)}
	q2 := q1
	q2.Scenario.Name = "sibling"
	q2.Scenario.Seed = 777
	k1, ok1 := q1.dedupKey()
	k2, ok2 := q2.dedupKey()
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("name/seed siblings should share a dedup key: %v %v", k1, k2)
	}
	q3 := q1
	q3.Scenario.Schedule = []PhaseSpec{day, {Name: "night", Duration: 960, Util: 0.05}}
	if k3, _ := q3.dedupKey(); k3 == k1 {
		t.Fatal("different schedules must not share a dedup key")
	}

	cs := NewCachedSolver(Analytic{}, nil)
	a1, err := cs.Answer(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	a2, cached, err := cs.AnswerCached(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("sibling timeline query should hit the cache")
	}
	t1, t2 := a1.(TimelineAnswer), a2.(TimelineAnswer)
	if t2.Scenario.Name != "sibling" {
		t.Fatalf("cache hit did not rebind the caller's scenario: %q", t2.Scenario.Name)
	}
	if t2.Elapsed != 0 {
		t.Fatalf("cache hit should scrub Elapsed, got %v", t2.Elapsed)
	}
	if len(t1.Epochs) != len(t2.Epochs) || t1.Epochs[0].EJob != t2.Epochs[0].EJob {
		t.Fatal("cache hit changed the epoch series")
	}
}

// TestTimelineSweepAxes drives the sweep engine over a timeline base query:
// W and util axes expand, the util axis rescales phases preserving shape,
// and the cv2 axis is refused.
func TestTimelineSweepAxes(t *testing.T) {
	base := TimelineQuery{Scenario: Scenario{
		J: 400, W: 4, O: 10,
		Schedule: []PhaseSpec{
			{Name: "day", Duration: 480, Util: 0.2},
			{Name: "night", Duration: 960, Util: 0.05},
		},
	}, Epochs: 2}
	spec := QuerySweepSpec{Base: base, W: []int{2, 4}, Util: []float64{0.05, 0.1}, Seed: 9}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		q := p.Query.(TimelineQuery)
		phases := q.Scenario.Schedule
		var weighted, total float64
		for _, ph := range phases {
			weighted += ph.Util * ph.Duration
			total += ph.Duration
		}
		mean := weighted / total
		if math.Abs(mean-0.05) > 1e-9 && math.Abs(mean-0.1) > 1e-9 {
			t.Fatalf("point %d: mean util %v not on the axis", p.Index, mean)
		}
		// The day/night ratio must be preserved by the rescale.
		if r := phases[0].Util / phases[1].Util; math.Abs(r-4) > 1e-9 {
			t.Fatalf("point %d: rescale broke the shape: ratio %v", p.Index, r)
		}
	}
	res, err := CollectQueries(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Point.Index, r.Err)
		}
		if len(r.Answer.(TimelineAnswer).Epochs) != 2 {
			t.Fatalf("point %d: wrong epoch count", r.Point.Index)
		}
	}

	if _, err := (QuerySweepSpec{Base: base, OwnerCV2: []float64{1, 4}}).Points(); err == nil {
		t.Fatal("cv2 axis over a timeline base should be refused")
	}
}
