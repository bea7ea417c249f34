package solve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"feasim/internal/rng"
	"feasim/internal/sim"
)

// frontierBase is the canonical frontier fixture: the Section 3 aggregate
// model with a 0.8 weighted-efficiency target, searched over the
// utilization × task-ratio plane where the paper's feasibility boundary
// lives (threshold ratio grows with utilization).
func frontierBase() ReportQuery {
	return ReportQuery{Scenario: Scenario{
		Name: "frontier", W: 20, O: 10, Util: 0.1, J: 2000, TargetEff: 0.8,
	}}
}

func frontierAxes() (FrontierAxis, FrontierAxis) {
	return FrontierAxis{Axis: FrontierAxisUtil, Min: 0.02, Max: 0.2},
		FrontierAxis{Axis: FrontierAxisRatio, Min: 1, Max: 40}
}

// boundarySet collects the finest-grid origins of a run's boundary cells.
func boundarySet(t *testing.T, cells []FrontierCell) map[[2]int]bool {
	t.Helper()
	set := make(map[[2]int]bool)
	for _, c := range cells {
		if c.Verdict == FrontierError {
			t.Fatalf("cell (%d,%d): %s", c.IX, c.IY, c.Error)
		}
		if c.Verdict == FrontierBoundary {
			if c.Span != 1 {
				t.Fatalf("boundary cell (%d,%d) has span %d, want 1", c.IX, c.IY, c.Span)
			}
			set[[2]int{c.IX, c.IY}] = true
		}
	}
	return set
}

// denseAxisOrder is each axis's loop depth in QuerySweepSpec.Points, outer
// first.
var denseAxisOrder = map[string]int{
	FrontierAxisUtil: 1, FrontierAxisRatio: 2, FrontierAxisOwnerCV2: 3, FrontierAxisSpread: 4,
}

// setDenseAxis sets one axis of a dense sweep spec to the given values.
func setDenseAxis(sp *QuerySweepSpec, axis string, vals []float64) {
	switch axis {
	case FrontierAxisUtil:
		sp.Util = vals
	case FrontierAxisRatio:
		sp.TaskRatio = vals
	case FrontierAxisOwnerCV2:
		sp.OwnerCV2 = vals
	case FrontierAxisSpread:
		sp.Spread = vals
	}
}

// TestFrontierMatchesDenseSweep locates the boundary adaptively at
// resolution 16 and checks it against the ground truth computed from a full
// dense query sweep over the same node lattice: exactly the same boundary
// cells, from far fewer probes. The owner_cv2 pair shares one analytic
// answer down each util column, so most of its corners copy a verdict; the
// spread pair probes heterogeneous fleets.
func TestFrontierMatchesDenseSweep(t *testing.T) {
	ux, ry := frontierAxes()
	for _, tc := range []struct {
		name string
		base ReportQuery
		x, y FrontierAxis
		seed uint64
	}{
		{"util_x_task_ratio", frontierBase(), ux, ry, 21},
		{"util_x_owner_cv2", frontierBase(), ux, FrontierAxis{Axis: FrontierAxisOwnerCV2, Min: 0, Max: 4}, 9},
		{"spread_x_task_ratio", spreadBase(), FrontierAxis{Axis: FrontierAxisSpread, Min: 0, Max: 1.6}, ry, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := FrontierSpec{Base: tc.base, X: tc.x, Y: tc.y, Coarse: 2, Depth: 3, Seed: tc.seed}
			res := spec.Resolution()
			if res != 16 {
				t.Fatalf("resolution %d, want 16", res)
			}
			fres, err := CollectFrontier(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got := boundarySet(t, fres.Cells)

			// Ground truth: the dense grid over the identical node values,
			// through the ordinary query-sweep engine.
			var xs, ys []float64
			for i := 0; i <= res; i++ {
				xs = append(xs, tc.x.value(i, res))
				ys = append(ys, tc.y.value(i, res))
			}
			dspec := QuerySweepSpec{Base: tc.base, Seed: tc.seed}
			setDenseAxis(&dspec, tc.x.Axis, xs)
			setDenseAxis(&dspec, tc.y.Axis, ys)
			dense, err := CollectQueries(context.Background(), dspec)
			if err != nil {
				t.Fatal(err)
			}
			if len(dense) != (res+1)*(res+1) {
				t.Fatalf("dense grid has %d points, want %d", len(dense), (res+1)*(res+1))
			}
			feas := make(map[[2]int]bool)
			for _, r := range dense {
				if r.Err != nil {
					t.Fatalf("dense point %d: %v", r.Point.Index, r.Err)
				}
				rep := r.Answer.(ReportAnswer).Report
				if rep.Feasible == nil {
					t.Fatalf("dense point %d carries no verdict", r.Point.Index)
				}
				outer, inner := r.Point.Index/(res+1), r.Point.Index%(res+1)
				if denseAxisOrder[tc.x.Axis] > denseAxisOrder[tc.y.Axis] {
					outer, inner = inner, outer
				}
				feas[[2]int{outer, inner}] = *rep.Feasible
			}
			want := make(map[[2]int]bool)
			for ix := 0; ix < res; ix++ {
				for iy := 0; iy < res; iy++ {
					a, b := feas[[2]int{ix, iy}], feas[[2]int{ix + 1, iy}]
					c, d := feas[[2]int{ix, iy + 1}], feas[[2]int{ix + 1, iy + 1}]
					if a != b || a != c || a != d {
						want[[2]int{ix, iy}] = true
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("fixture's boundary does not cross the searched window")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("boundary cells differ: frontier %d cells, dense %d cells", len(got), len(want))
			}

			// The cells must tile the window exactly: every finest-resolution
			// unit covered once.
			area := 0
			for _, c := range fres.Cells {
				area += c.Span * c.Span
			}
			if area != res*res {
				t.Errorf("cells cover %d unit squares, want %d", area, res*res)
			}
			if fres.Stats.Boundary != len(want) {
				t.Errorf("stats.Boundary = %d, want %d", fres.Stats.Boundary, len(want))
			}
			if fres.Stats.Evaluations >= fres.Stats.DenseEvaluations {
				t.Errorf("adaptive run probed %d nodes, dense needs only %d", fres.Stats.Evaluations, fres.Stats.DenseEvaluations)
			}
		})
	}
}

// TestFrontierDedupDeterministic: corners sharing an analytic answer key
// are grouped in level order before any probe runs, so the stats and cells
// of a dedup-heavy run do not depend on the pool size or thread timing. The
// pinned stats are those of a one-worker run, where the order is fixed.
func TestFrontierDedupDeterministic(t *testing.T) {
	x, _ := frontierAxes()
	spec := FrontierSpec{
		Base: frontierBase(), X: x, Y: FrontierAxis{Axis: FrontierAxisOwnerCV2, Min: 0, Max: 4},
		Coarse: 2, Depth: 3, Seed: 9,
	}
	want := FrontierStats{Resolution: 16, Cells: 46, Boundary: 16, Evaluations: 68, CacheHits: 62, DenseEvaluations: 289}
	var cells []FrontierCell
	for _, workers := range []int{1, 2, 8} {
		spec.Workers = workers
		for run := 0; run < 50; run++ {
			res, err := CollectFrontier(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != want {
				t.Fatalf("workers %d run %d: stats %+v, want %+v", workers, run, res.Stats, want)
			}
			if cells == nil {
				cells = res.Cells
			} else if !reflect.DeepEqual(res.Cells, cells) {
				t.Fatalf("workers %d run %d: cells differ from the first run", workers, run)
			}
		}
	}
}

// TestFrontierMatchesExhaustiveDES runs the same adaptive-vs-exhaustive
// comparison on the DES backend: node seeds are a pure function of the
// finest-grid coordinate, so both runs see identical stochastic verdicts and
// must agree on the boundary.
func TestFrontierMatchesExhaustiveDES(t *testing.T) {
	pr := &sim.Protocol{Batches: 4, BatchSize: 40, Level: 0.9}
	x, y := frontierAxes()
	base := FrontierSpec{
		Base: frontierBase(), X: x, Y: y,
		Backend: BackendDES, Protocol: pr, Warmup: 5, Seed: 33,
	}
	adaptive := base
	adaptive.Coarse, adaptive.Depth = 2, 1
	exhaustive := base
	exhaustive.Coarse, exhaustive.Depth = 4, -1
	if adaptive.Resolution() != exhaustive.Resolution() {
		t.Fatalf("resolutions differ: %d vs %d", adaptive.Resolution(), exhaustive.Resolution())
	}
	ares, err := CollectFrontier(context.Background(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := CollectFrontier(context.Background(), exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	got, want := boundarySet(t, ares.Cells), boundarySet(t, eres.Cells)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DES boundary differs: adaptive %v, exhaustive %v", got, want)
	}
	if eres.Stats.Evaluations != (exhaustive.Resolution()+1)*(exhaustive.Resolution()+1) {
		t.Errorf("exhaustive run probed %d nodes, want the full lattice %d",
			eres.Stats.Evaluations, (exhaustive.Resolution()+1)*(exhaustive.Resolution()+1))
	}
}

// countingAnalytic wraps Analytic and counts Answer executions — the probes
// a backend actually pays for, after the dedup cache — and, in targeted, the
// report queries that arrive with a target efficiency.
type countingAnalytic struct {
	Analytic
	calls    atomic.Int64
	targeted atomic.Int64
}

func (c *countingAnalytic) Answer(ctx context.Context, q Query) (Answer, error) {
	c.calls.Add(1)
	if rq, ok := q.(ReportQuery); ok && rq.Scenario.TargetEff != 0 {
		c.targeted.Add(1)
	}
	return c.Analytic.Answer(ctx, q)
}

// TestFrontierProbesCarryNoTarget: a report corner reaches the solver with
// its target cleared, since the frontier classifies it by weighted
// efficiency and the target would only add the analytic threshold search.
// The corner is validated with its target first, so a target out of range
// still makes error cells and no probe.
func TestFrontierProbesCarryNoTarget(t *testing.T) {
	x, y := frontierAxes()
	for _, tc := range []struct {
		base ReportQuery
		x    FrontierAxis
	}{
		{frontierBase(), x},
		{spreadBase(), FrontierAxis{Axis: FrontierAxisSpread, Min: 0, Max: 1.6}},
	} {
		base := tc.base
		spec := FrontierSpec{Base: base, X: tc.x, Y: y, Coarse: 2, Depth: 3, Seed: 4}
		solver := &countingAnalytic{}
		ch, _, err := SweepFrontierSolver(context.Background(), spec, solver)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ch {
			if c.Verdict == FrontierError {
				t.Fatalf("%s cell (%d,%d): %s", base.Scenario.Name, c.IX, c.IY, c.Error)
			}
		}
		if solver.calls.Load() == 0 {
			t.Fatalf("%s: no probe reached the solver", base.Scenario.Name)
		}
		if n := solver.targeted.Load(); n != 0 {
			t.Errorf("%s: %d of %d report probes carried a target", base.Scenario.Name, n, solver.calls.Load())
		}
	}

	bad := frontierBase()
	bad.Scenario.TargetEff = 1.5
	solver := &countingAnalytic{}
	ch, stats, err := SweepFrontierSolver(context.Background(), FrontierSpec{Base: bad, X: x, Y: y, Coarse: 2, Depth: 1}, solver)
	if err != nil {
		t.Fatal(err)
	}
	for c := range ch {
		if c.Verdict != FrontierError || !strings.Contains(c.Error, "target_eff") {
			t.Errorf("cell (%d,%d) with target 1.5: verdict %q, error %q", c.IX, c.IY, c.Verdict, c.Error)
		}
	}
	if st := stats(); st.Failed != st.Cells || st.Cells == 0 || solver.calls.Load() != 0 {
		t.Errorf("target 1.5: %d of %d cells failed, %d probes reached the solver", st.Failed, st.Cells, solver.calls.Load())
	}
}

// TestFrontierTenfoldFewerSolverCalls pins the tentpole's acceptance bar: at
// depth 5 (resolution 128) the adaptive search must locate the boundary with
// at least 10× fewer backend executions than the equivalent dense grid.
func TestFrontierTenfoldFewerSolverCalls(t *testing.T) {
	x, y := frontierAxes()
	spec := FrontierSpec{Base: frontierBase(), X: x, Y: y, Coarse: 4, Depth: 5, Seed: 7}
	solver := &countingAnalytic{}
	ch, stats, err := SweepFrontierSolver(context.Background(), spec, solver)
	if err != nil {
		t.Fatal(err)
	}
	boundary := 0
	for c := range ch {
		if c.Verdict == FrontierError {
			t.Fatalf("cell (%d,%d): %s", c.IX, c.IY, c.Error)
		}
		if c.Verdict == FrontierBoundary {
			boundary++
		}
	}
	st := stats()
	res := spec.Resolution()
	dense := (res + 1) * (res + 1)
	calls := int(solver.calls.Load())
	if st.DenseEvaluations != dense {
		t.Errorf("stats.DenseEvaluations = %d, want %d", st.DenseEvaluations, dense)
	}
	if calls != st.Evaluations-st.CacheHits {
		t.Errorf("solver saw %d calls, stats say %d probes − %d cache hits", calls, st.Evaluations, st.CacheHits)
	}
	if boundary < res {
		t.Errorf("only %d boundary cells at resolution %d; the frontier should span the window", boundary, res)
	}
	if calls*10 > dense {
		t.Errorf("adaptive search paid %d backend executions; dense grid is %d — ratio %.1f×, want ≥ 10×",
			calls, dense, float64(dense)/float64(calls))
	}
	t.Logf("boundary at resolution %d: %d backend executions vs %d dense (%.1f×), %d boundary cells",
		res, calls, dense, float64(dense)/float64(calls), boundary)
}

// TestFrontierStreamsLevelByLevel: cells must arrive in nondecreasing depth
// order — each refinement level's classifications stream before the next
// level's probes finish — and the channel must deliver the coarse level's
// interior cells even if the consumer is slow.
func TestFrontierStreamsLevelByLevel(t *testing.T) {
	x, y := frontierAxes()
	spec := FrontierSpec{Base: frontierBase(), X: x, Y: y, Coarse: 2, Depth: 2, Seed: 3}
	ch, _, err := SweepFrontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for c := range ch {
		if c.Depth < last {
			t.Fatalf("cell (%d,%d) at depth %d arrived after depth %d", c.IX, c.IY, c.Depth, last)
		}
		last = c.Depth
	}
	if last == 0 {
		t.Fatal("run never refined past the coarse grid")
	}
}

// TestFrontierCancellation: a cancelled context ends the run promptly with
// the channel closed and ctx.Err() reported by CollectFrontier.
func TestFrontierCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, y := frontierAxes()
	_, err := CollectFrontier(ctx, FrontierSpec{Base: frontierBase(), X: x, Y: y, Coarse: 2, Depth: 2})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFrontierTimelineDomainErrorCells: a timeline base whose util axis
// overflows the peak phase at the top of the range must resolve those cells
// as per-point domain errors while the rest of the window classifies
// normally — the sweep-engine bugfix carried into frontier mode.
func TestFrontierTimelineDomainErrorCells(t *testing.T) {
	base := TimelineQuery{Scenario: Scenario{
		J: 400, W: 4, O: 10, TargetEff: 0.5,
		Schedule: []PhaseSpec{
			{Name: "day", Duration: 480, Util: 0.2},
			{Name: "night", Duration: 960, Util: 0.05},
		},
	}, Epochs: 2}
	spec := FrontierSpec{
		Base: base,
		// Mean utilization 0.53 rescales the day phase to 0.2·5.3 = 1.06 ≥ 1:
		// the top of this range is outside the model's domain (and the node
		// spacing skips the narrow band where the phase stays below 1 but the
		// derived request probability already exceeds it).
		X:      FrontierAxis{Axis: FrontierAxisUtil, Min: 0.05, Max: 0.53},
		Y:      FrontierAxis{Axis: FrontierAxisW, Min: 2, Max: 10},
		Coarse: 4, Depth: -1, Seed: 5,
	}
	res, err := CollectFrontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var failed, overflow, classified int
	var domain *PointDomainError
	for _, c := range res.Cells {
		switch c.Verdict {
		case FrontierError:
			failed++
			// The saturated rescale arrives as the expansion-time domain
			// error; other corners may fail inside the backend instead (the
			// same per-cell class, different layer).
			if errors.As(c.Err, &domain) && strings.Contains(c.Error, "must stay below 1") {
				overflow++
			}
		case FrontierFeasible, FrontierInfeasible, FrontierBoundary:
			classified++
		}
	}
	if overflow == 0 {
		t.Fatalf("no cells carry the rescale-overflow domain error (%d error cells total)", failed)
	}
	if classified == 0 {
		t.Fatal("no classified cells; the overflow must not poison the whole window")
	}
	if res.Stats.Failed != failed {
		t.Errorf("stats.Failed = %d, want %d", res.Stats.Failed, failed)
	}
}

// TestFrontierSpecValidation walks the loud-rejection matrix.
func TestFrontierSpecValidation(t *testing.T) {
	x, y := frontierAxes()
	ok := FrontierSpec{Base: frontierBase(), X: x, Y: y}
	cases := []struct {
		name   string
		mutate func(*FrontierSpec)
		want   string
	}{
		{"missing base", func(s *FrontierSpec) { s.Base = nil }, "needs a base query"},
		{"no verdict kind", func(s *FrontierSpec) {
			s.Base = ThresholdQuery{W: 20, O: 10, Util: 0.1, TargetEff: 0.8}
		}, "feasibility verdict"},
		{"no target", func(s *FrontierSpec) {
			q := frontierBase()
			q.Scenario.TargetEff = 0
			s.Base = q
		}, "target_eff"},
		{"unknown axis", func(s *FrontierSpec) { s.X.Axis = "cv" }, "unknown"},
		{"same axis twice", func(s *FrontierSpec) { s.Y = s.X }, "must differ"},
		{"inverted range", func(s *FrontierSpec) { s.X.Min, s.X.Max = s.X.Max, s.X.Min }, "min < max"},
		{"util at saturation", func(s *FrontierSpec) { s.X.Max = 1 }, "inside [0,1)"},
		{"resolution blowup", func(s *FrontierSpec) { s.Coarse = 64; s.Depth = 12 }, "exceeds"},
		{"unknown backend", func(s *FrontierSpec) { s.Backend = "quantum" }, "backend"},
		{"ratio axis on explicit stations", func(s *FrontierSpec) {
			s.Base = ReportQuery{Scenario: Scenario{
				TargetEff: 0.8,
				Stations: []StationSpec{
					{OwnerThink: "exp:90", OwnerDemand: "det:10", Count: 2},
				},
				TaskDemand: "det:100",
			}}
		}, "explicit-station"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := ok
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("want a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline spec should validate: %v", err)
	}
}

// TestFrontierSpecJSONRoundTrip pins the wire form: nested base envelope,
// strict fields, and ParseFrontier validation.
func TestFrontierSpecJSONRoundTrip(t *testing.T) {
	x, y := frontierAxes()
	want := FrontierSpec{
		Base: frontierBase(), X: x, Y: y,
		Coarse: 2, Depth: 2, Backend: BackendAnalytic, Workers: 3, Seed: 17,
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFrontier(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, err := ParseFrontier([]byte(`{"base": {"kind": "report", "scenario": {"j": 1, "w": 1, "o": 1, "util": 0.1}}, "x": {"axis": "w", "min": 1, "max": 4}, "y": {"axis": "util", "min": 0.1, "max": 0.5}, "frobnicate": 1}`)); err == nil {
		t.Error("unknown spec field should fail")
	}
	if _, err := ParseFrontier([]byte(`{}`)); err == nil {
		t.Error("empty spec should fail")
	}
}

// TestFrontierDeterministicSeeds: the node seed is a pure function of the
// finest-grid coordinate, so two runs at different depths assign the same
// seed to the same axis point — the property that lets refinement levels and
// the answer cache compound.
func TestFrontierDeterministicSeeds(t *testing.T) {
	x, y := frontierAxes()
	shallow := FrontierSpec{Base: frontierBase(), X: x, Y: y, Coarse: 4, Depth: -1, Seed: 11}
	deep := FrontierSpec{Base: frontierBase(), X: x, Y: y, Coarse: 2, Depth: 1, Seed: 11}
	if shallow.Resolution() != deep.Resolution() {
		t.Fatalf("resolutions differ: %d vs %d", shallow.Resolution(), deep.Resolution())
	}
	collect := func(spec FrontierSpec) map[[2]int]uint64 {
		res := spec.Resolution()
		fr := &frontierRun{spec: spec, res: res, seed: rng.NewStream(spec.Seed)}
		seeds := make(map[[2]int]uint64)
		for ix := 0; ix <= res; ix++ {
			for iy := 0; iy <= res; iy++ {
				p := fr.point(0, [2]int{ix, iy})
				if p.Err != nil {
					t.Fatal(p.Err)
				}
				seeds[[2]int{ix, iy}] = p.Query.(ReportQuery).Scenario.Seed
			}
		}
		return seeds
	}
	if !reflect.DeepEqual(collect(shallow), collect(deep)) {
		t.Error("node seeds depend on the refinement schedule, not just the coordinate")
	}
}

// TestFrontierTimeBudget keeps the suite honest about wall-clock: the
// depth-5 counting run plus the analytic parity run must stay well under a
// second on the analytic backend.
func TestFrontierTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	x, y := frontierAxes()
	start := time.Now()
	if _, err := CollectFrontier(context.Background(), FrontierSpec{
		Base: frontierBase(), X: x, Y: y, Coarse: 4, Depth: 4, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("depth-4 analytic frontier took %v", d)
	}
}
