package feasim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"feasim"
	"feasim/internal/core"
)

// report is point r's scenario and report; a failed point has a zero report.
func report(r feasim.QuerySweepResult) (feasim.Scenario, feasim.Report) {
	ra, _ := r.Answer.(feasim.ReportAnswer)
	return r.Point.Query.(feasim.ReportQuery).Scenario, ra.Report
}

// TestSweepDeterministicAcrossWorkerCounts runs the same grid on 1 and 4
// workers and requires identical per-point results: seeds are split from
// the root stream by grid index, not by worker scheduling.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	pr := feasim.Protocol{Batches: 5, BatchSize: 50, Level: 0.90}
	spec := feasim.QuerySweepSpec{
		Base:      feasim.ReportQuery{Scenario: feasim.Scenario{J: 1000, W: 10, O: 10}},
		Util:      []float64{0.05, 0.1, 0.2},
		TaskRatio: []float64{5, 10},
		Backends:  []string{feasim.BackendAnalytic, feasim.BackendExact},
		Seed:      2024,
		Protocol:  &pr,
	}
	run := func(workers int) []feasim.QuerySweepResult {
		spec.Workers = workers
		res, err := feasim.CollectQuerySweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if len(serial) != 12 || len(parallel) != 12 {
		t.Fatalf("grid sizes %d, %d; want 12 (2 backends x 3 utils x 2 ratios)", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Point.Index != b.Point.Index || a.Point.Backend != b.Point.Backend {
			t.Fatalf("point %d: ordering mismatch", i)
		}
		_, ra := report(a)
		_, rb := report(b)
		if ra.Scenario.Seed != rb.Scenario.Seed {
			t.Errorf("point %d: seeds differ across worker counts", i)
		}
		if ra.EJob != rb.EJob || ra.WeightedEfficiency != rb.WeightedEfficiency {
			t.Errorf("point %d (%s): results differ across worker counts: %v vs %v",
				i, a.Point.Backend, ra.EJob, rb.EJob)
		}
	}
}

// TestSweepCancelReturnsPromptly cancels a sweep of deliberately slow DES
// points and requires CollectQuerySweep to come back quickly with
// context.Canceled.
func TestSweepCancelReturnsPromptly(t *testing.T) {
	pr := feasim.Protocol{Batches: 20, BatchSize: 1000, Level: 0.90}
	spec := feasim.QuerySweepSpec{
		Base:     feasim.ReportQuery{Scenario: feasim.Scenario{J: 6000, W: 60, O: 10}},
		Util:     []float64{0.05, 0.1, 0.2, 0.3},
		Backends: []string{feasim.BackendDES},
		Workers:  2,
		Protocol: &pr,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := feasim.CollectQuerySweep(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled sweep took %v to return", elapsed)
	}
}

// TestSweepCancelMidFlight starts a long sweep, cancels after the first
// result arrives, and requires the stream to close promptly.
func TestSweepCancelMidFlight(t *testing.T) {
	pr := feasim.Protocol{Batches: 20, BatchSize: 1000, Level: 0.90, MaxRel: 0.001, MaxSamples: 1 << 30}
	spec := feasim.QuerySweepSpec{
		Base:     feasim.ReportQuery{Scenario: feasim.Scenario{J: 6000, W: 60, O: 10}},
		Util:     []float64{0.05, 0.1, 0.2, 0.3, 0.25, 0.15},
		Backends: []string{feasim.BackendDES},
		Workers:  2,
		Protocol: &pr,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := feasim.RunQuerySweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	for range ch {
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("sweep stream took %v to close after cancellation", elapsed)
	}
}

// TestSweepDedupesRepeatedAnalyticPoints crosses the analytic backend with
// an OwnerCV2 axis. The discrete model sees only the mean owner demand, so
// the three grid points share one solve; two must come from the cache.
func TestSweepDedupesRepeatedAnalyticPoints(t *testing.T) {
	spec := feasim.QuerySweepSpec{
		Base:     feasim.ReportQuery{Scenario: feasim.Scenario{J: 1000, W: 10, O: 10, Util: 0.1}},
		OwnerCV2: []float64{1, 4, 16},
		Backends: []string{feasim.BackendAnalytic},
		Workers:  1, // serial so cache hits are deterministic
		Seed:     5,
	}
	res, err := feasim.CollectQuerySweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	cached := 0
	_, first := report(res[0])
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Point.Index, r.Err)
		}
		if r.Cached {
			cached++
		}
		if _, rep := report(r); rep.EJob != first.EJob {
			t.Errorf("analytic answers should agree across OwnerCV2: %v vs %v", rep.EJob, first.EJob)
		}
	}
	if cached != 2 {
		t.Errorf("cache served %d points, want 2", cached)
	}
}

// TestSweepTaskRatioAxis checks the J = ratio·O·W expansion.
func TestSweepTaskRatioAxis(t *testing.T) {
	spec := feasim.QuerySweepSpec{
		Base:      feasim.ReportQuery{Scenario: feasim.Scenario{W: 10, O: 10, Util: 0.1, J: 1}},
		W:         []int{10, 20},
		TaskRatio: []float64{8, 13},
		Seed:      1,
	}
	res, err := feasim.CollectQuerySweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	for _, r := range res {
		s, rep := report(r)
		wantJ := float64(s.W) * s.O * rep.TaskRatio
		if s.J != wantJ {
			t.Errorf("point %d: J=%g, want ratio·O·W=%g", r.Point.Index, s.J, wantJ)
		}
	}
}

// TestSweepGoldenFile loads the checked-in sweep spec and runs it.
func TestSweepGoldenFile(t *testing.T) {
	spec, err := feasim.LoadReportSweep("testdata/sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := feasim.CollectQuerySweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 27 { // 3 backends x 3 utils x 3 ratios
		t.Fatalf("got %d results, want 27", len(res))
	}
	backends := make(map[string]int)
	for _, r := range res {
		backends[r.Point.Backend]++
	}
	for _, b := range feasim.Backends() {
		if backends[b] != 9 {
			t.Errorf("backend %s answered %d points, want 9", b, backends[b])
		}
	}
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("point %d (%s): %v", r.Point.Index, r.Point.Backend, r.Err)
		}
	}
}

func TestSweepRejectsUnknownBackend(t *testing.T) {
	spec := feasim.QuerySweepSpec{
		Base:     feasim.ReportQuery{Scenario: feasim.Scenario{J: 1000, W: 10, O: 10, Util: 0.1}},
		Backends: []string{"csim"},
	}
	if _, err := feasim.CollectQuerySweep(context.Background(), spec); err == nil {
		t.Error("unknown backend should fail the sweep up front")
	}
}

// TestSweepAnalyticGridThirdPassAllHits sweeps the canonical analytic grid
// (25 W-points × 4 utilizations, one fresh (T, P) key per point) three
// times. The first pass sights every key once, the second admits it to the
// table memo, and the third must be served entirely from the memo: the
// doorkeeper must remember a whole grid pass, not only the last few keys
// on each shard (a four-slot ring fails here). TestTablesDoorkeeperMixesN
// pins the other half, that keys sharing P do not share a fingerprint.
func TestSweepAnalyticGridThirdPassAllHits(t *testing.T) {
	spec := analyticGrid()
	spec.Workers = 1
	for pass := 1; pass <= 3; pass++ {
		h0, m0 := core.TablesCacheStats()
		res, err := feasim.CollectQuerySweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := core.TablesCacheStats()
		if pass == 3 && (m1 != m0 || h1-h0 != uint64(len(res))) {
			t.Errorf("third pass: %d hits, %d misses over %d points; want all hits", h1-h0, m1-m0, len(res))
		}
	}
}

// TestSweepFixedTPSharesKernelTables runs a W-grid at a fixed task demand
// and owner probability — the memory-bounded-scaleup shape — across many
// workers, and asserts the process-wide binomial table memo absorbed the
// kernel work: every point after the first per (T, P) must hit the cache,
// no matter which worker solves it.
func TestSweepFixedTPSharesKernelTables(t *testing.T) {
	ws := make([]int, 0, 40)
	for w := 2; w <= 80; w += 2 {
		ws = append(ws, w)
	}
	utils := []float64{0.05, 0.2}
	spec := feasim.QuerySweepSpec{
		Base:      feasim.ReportQuery{Scenario: feasim.Scenario{Name: "fixedtp", O: 10}},
		W:         ws,
		Util:      utils,
		TaskRatio: []float64{300}, // T = 3000 fixed: J = ratio·O·W tracks W
		Backends:  []string{feasim.BackendAnalytic},
		Workers:   8,
		Seed:      1,
	}
	hits0, misses0 := core.TablesCacheStats()
	res, err := feasim.CollectQuerySweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ws) * len(utils); len(res) != want {
		t.Fatalf("got %d points, want %d", len(res), want)
	}
	// Tables builds outside the cache lock, so workers racing on a cold key
	// may each count one benign duplicate miss: the bound per (T, P) pair is
	// the worker count, not 1. What must not happen is per-point rebuilding.
	hits1, misses1 := core.TablesCacheStats()
	maxBuilds := uint64(len(utils) * spec.Workers)
	builds := misses1 - misses0
	if builds > maxBuilds {
		t.Errorf("%d table builds for %d distinct (T, P) pairs on %d workers (max %d): points are not sharing the memo",
			builds, len(utils), spec.Workers, maxBuilds)
	}
	if got, min := hits1-hits0, uint64(len(res))-builds; got < min {
		t.Errorf("only %d table-cache hits, want >= %d", got, min)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d failed: %v", r.Point.Index, r.Err)
		}
	}
}
