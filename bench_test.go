// Benchmarks regenerating every table and figure in the paper (one
// BenchmarkFigureNN per artifact, reporting its headline number as a custom
// metric), micro-benchmarks of each substrate, and ablation benchmarks for
// the design choices called out in DESIGN.md §6.
//
// Run with: go test -bench=. -benchmem
package feasim_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"feasim"
	"feasim/internal/core"
	"feasim/internal/des"
	"feasim/internal/experiment"
	"feasim/internal/rng"
	"feasim/internal/sim"
	"feasim/internal/solve"
	"feasim/internal/stats"
)

// runExperiment executes one paper experiment per iteration and reports the
// value of its first check as a custom metric.
func runExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	d, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiment.TestConfig()
	var out experiment.Output
	var err error
	for i := 0; i < b.N; i++ {
		out, err = d.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(out.Checks) > 0 {
		b.ReportMetric(out.Checks[0].Got, metric)
	}
	for _, c := range out.Checks {
		if !c.Pass() {
			b.Errorf("%s: %s", id, c)
		}
	}
}

// ---- One benchmark per paper artifact ----

func BenchmarkFigure01Speedup(b *testing.B) { runExperiment(b, "fig01", "speedup@W100,u1%") }
func BenchmarkFigure02Efficiency(b *testing.B) {
	runExperiment(b, "fig02", "")
}
func BenchmarkFigure03WeightedSpeedup(b *testing.B) { runExperiment(b, "fig03", "") }
func BenchmarkFigure04WeightedEfficiency(b *testing.B) {
	runExperiment(b, "fig04", "weff@W100,u1%")
}
func BenchmarkFigure05WeightedSpeedupBig(b *testing.B) { runExperiment(b, "fig05", "") }
func BenchmarkFigure06WeightedEfficiencyBig(b *testing.B) {
	runExperiment(b, "fig06", "10Kbeats1K")
}
func BenchmarkFigure07TaskRatio(b *testing.B)        { runExperiment(b, "fig07", "") }
func BenchmarkFigure08TaskRatioSystems(b *testing.B) { runExperiment(b, "fig08", "smallWbeatsBig") }
func BenchmarkFigure09Scaled(b *testing.B)           { runExperiment(b, "fig09", "increase@W100,u1%") }
func BenchmarkFigure10PVMResponse(b *testing.B)      { runExperiment(b, "fig10", "maxtask@1min,W12") }
func BenchmarkFigure11PVMSpeedup(b *testing.B)       { runExperiment(b, "fig11", "ordering") }
func BenchmarkSimValidation(b *testing.B)            { runExperiment(b, "simval", "coverage") }
func BenchmarkThresholdTable(b *testing.B)           { runExperiment(b, "thresholds", "ratio@u5%") }

// ---- Substrate micro-benchmarks ----

func BenchmarkAnalyze(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(1000, 100, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	f := p.Fleet()
	for i := 0; i < b.N; i++ {
		if _, err := feasim.Analyze(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeLargeT(b *testing.B) {
	// Scaled-problem regime: T = 100k units per task.
	p, err := feasim.ParamsFromUtilization(1e7, 100, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	f := p.Fleet()
	for i := 0; i < b.N; i++ {
		if _, err := feasim.Analyze(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeFleet is the heterogeneous model on a 3-class fleet of 30
// stations. Cold steps the task demand by 2 through 256 values, so every
// class's trial count changes each iteration and the 768 table keys cycle
// through a memo that holds 256: every lookup misses and builds. Warm
// repeats one fleet against resident tables.
func BenchmarkAnalyzeFleet(b *testing.B) {
	stations := []feasim.FleetStation{
		{P: 0.01, Speed: 1, Count: 10},
		{P: 0.02, Speed: 1.5, Count: 10},
		{P: 0.005, Speed: 2, Count: 10},
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := feasim.Fleet{J: 30 * float64(100+2*(i%256)), O: 10, Stations: stations}
			if _, err := feasim.Analyze(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		f := feasim.Fleet{J: 30 * 200, O: 10, Stations: stations}
		for i := 0; i < b.N; i++ {
			if _, err := feasim.Analyze(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBinomialExpectedMax(b *testing.B) {
	bin := core.Binomial{N: 1000, P: 0.01}
	for i := 0; i < b.N; i++ {
		_ = bin.ExpectedMaxOfIID(100)
	}
}

func BenchmarkThresholdSolve(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(600, 60, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	q := core.ThresholdQuery{Stations: p.Fleet().Stations, O: 10, TargetWeightedEff: 0.8}
	for i := 0; i < b.N; i++ {
		if _, _, err := q.MinTaskRatio(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionSearch is the homogeneous right-sizing search over
// [1, 256] workstations: the one-station template tiled to each probe.
func BenchmarkPartitionSearch(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(4000, 1, 10, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	template := p.Fleet().Stations
	for i := 0; i < b.N; i++ {
		if _, err := core.MaxWorkstations(4000, 10, template, 0.8, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSimSample(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(1000, 100, 10, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	x, err := sim.NewExact(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Sample()
	}
}

func BenchmarkGeneralSimJob(b *testing.B) {
	cfg := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
	cfg.Seed = 3
	g, err := sim.NewGeneral(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESPoint answers one DES report point per op through the sweep
// engine, as the repo benchmark's study_des workload does: iteration i runs
// cell i mod 8 of W ∈ {2, 4, 6, 8} × util ∈ {0.05, 0.15}, with J = 50·W,
// O = 5, protocol 5×100 and seed i.
func BenchmarkDESPoint(b *testing.B) {
	ws, utils := []int{2, 4, 6, 8}, []float64{0.05, 0.15}
	pr := sim.DefaultProtocol()
	pr.Batches, pr.BatchSize = 5, 100
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cell := i % (len(ws) * len(utils))
		w, util := ws[cell/len(utils)], utils[cell%len(utils)]
		res, err := solve.CollectQueries(ctx, solve.QuerySweepSpec{
			Base: solve.ReportQuery{Scenario: solve.Scenario{
				J: float64(50 * w), W: w, O: 5, Util: util, TargetEff: 0.8,
			}},
			Backends: []string{solve.BackendDES},
			Workers:  1,
			Protocol: &pr,
			Seed:     uint64(i),
		})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESEventThroughput(b *testing.B) {
	// Events executed per benchmark op: four callback chains rescheduling
	// themselves one time unit ahead.
	b.ReportAllocs()
	e := des.NewEngine()
	for p := 0; p < 4; p++ {
		var tick func()
		tick = func() { e.Schedule(e.Now()+1, tick) }
		e.Schedule(0, tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkDESPreemptiveServer(b *testing.B) {
	// A task class reusing the CPU back-to-back, preempted every two time
	// units by an owner burst of one unit.
	b.ReportAllocs()
	e := des.NewEngine()
	s := e.NewPreemptiveServer("cpu")
	var task, think, burst func()
	task = func() { s.Use(5, 0, task) }
	think = func() { e.Schedule(e.Now()+2, burst) }
	burst = func() { s.Use(1, 1, think) }
	e.Schedule(0, task)
	e.Schedule(0, think)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStationRunTask(b *testing.B) {
	params, err := feasim.SunELCParams(10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := feasim.NewCluster(1, params, 5)
	if err != nil {
		b.Fatal(err)
	}
	st, err := c.Station(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.RunTask(1000)
	}
}

func BenchmarkBatchMeansAdd(b *testing.B) {
	bm := stats.NewBatchMeans(1000)
	s := rng.NewStream(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Add(s.Float64())
	}
}

// sweepGridPoints is the size of each canonical sweep grid.
const sweepGridPoints = 100

// gridWs is the 25-point workstation axis shared by both sweep grids.
func gridWs() []int {
	out := make([]int, 0, 25)
	for w := 4; w <= 100; w += 4 {
		out = append(out, w)
	}
	return out
}

// analyticGrid is the 100-point analytic report grid (25 system sizes × 4
// utilizations at fixed J): per-point work varies with W, isolating the
// engine's fan-out, seed-splitting and channel overhead.
func analyticGrid() feasim.QuerySweepSpec {
	return feasim.QuerySweepSpec{
		Base:     feasim.ReportQuery{Scenario: feasim.Scenario{Name: "bench", J: 10000, O: 10}},
		W:        gridWs(),
		Util:     []float64{0.01, 0.05, 0.1, 0.2},
		Backends: []string{feasim.BackendAnalytic},
		Seed:     1993,
	}
}

// fixedTPGrid is the fixed-(T, P) W-sweep: the memory-bounded-scaleup shape
// with a large per-task demand (T = 10^5 at every W). Every point shares
// one binomial table per utilization through the process-wide kernel memo,
// so this isolates the gain from cross-worker table sharing.
func fixedTPGrid() feasim.QuerySweepSpec {
	return feasim.QuerySweepSpec{
		Base:      feasim.ReportQuery{Scenario: feasim.Scenario{Name: "fixedtp", O: 10}},
		W:         gridWs(),
		Util:      []float64{0.01, 0.05, 0.1, 0.2},
		TaskRatio: []float64{10000}, // T = ratio·O = 1e5 at every W
		Backends:  []string{feasim.BackendAnalytic},
		Seed:      1993,
	}
}

// runSweepBench measures points/s for one canonical grid at one pool size.
func runSweepBench(b *testing.B, spec feasim.QuerySweepSpec, workers int) {
	b.Helper()
	spec.Workers = workers
	for i := 0; i < b.N; i++ {
		res, err := feasim.CollectQuerySweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != sweepGridPoints {
			b.Fatalf("got %d points, want %d", len(res), sweepGridPoints)
		}
	}
	b.ReportMetric(float64(sweepGridPoints*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweep measures the parallel sweep engine on the canonical grids.
// The plain grid isolates the engine's fan-out, seed-splitting and channel
// overhead; the fixedTP grid holds (T, P) constant at T=10^5 so every point
// shares one binomial table per utilization through the process-wide
// kernel memo — before the table cache, each of those points rebuilt its
// own O(T) kernel.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runSweepBench(b, analyticGrid(), workers)
		})
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("fixedTP/workers=%d", workers), func(b *testing.B) {
			runSweepBench(b, fixedTPGrid(), workers)
		})
	}
}

// BenchmarkFrontier measures the adaptive frontier engine end to end: the
// feasibility boundary of the 20-workstation system over util × task
// ratio, refined from a 4×4 coarse grid down to resolution 32, reported as
// cells/s plus dense_per_probe — the probe-count saving over the 33×33
// dense lattice.
func BenchmarkFrontier(b *testing.B) {
	b.Run("res=32", func(b *testing.B) {
		spec := feasim.FrontierSpec{
			Base: feasim.ReportQuery{Scenario: feasim.Scenario{
				Name: "bench-frontier", J: 2000, W: 20, O: 10, Util: 0.1, TargetEff: 0.8,
			}},
			X:      feasim.FrontierAxis{Axis: feasim.FrontierAxisUtil, Min: 0.02, Max: 0.2},
			Y:      feasim.FrontierAxis{Axis: feasim.FrontierAxisRatio, Min: 1, Max: 40},
			Coarse: 4,
			Depth:  3,
			Seed:   1993,
		}
		cells := 0
		var stats feasim.FrontierStats
		for i := 0; i < b.N; i++ {
			res, err := feasim.CollectFrontier(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Boundary == 0 || res.Stats.Failed > 0 {
				b.Fatalf("degenerate frontier run: %+v", res.Stats)
			}
			cells += res.Stats.Cells
			stats = res.Stats
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		b.ReportMetric(float64(stats.DenseEvaluations)/float64(stats.Evaluations), "dense_per_probe")
	})
}

// servedQueryEnvelope is the served benchmarks' threshold envelope at the
// given seed: one empirical bisection on the exact-sim backend.
func servedQueryEnvelope(seed int) string {
	return fmt.Sprintf(`{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": %d}`, seed)
}

// benchServer starts the HTTP query service at a small batch-means protocol
// that keeps each cold bisection probe cheap, and returns a post function
// that requires 200 from an exact-backend request to path. Each call gets a
// fresh server, and so a fresh answer cache.
func benchServer(b *testing.B, path string) func(body string) {
	b.Helper()
	srv, err := feasim.NewQueryServer(feasim.ServeConfig{
		Options: feasim.SolverOptions{Protocol: feasim.Protocol{Batches: 5, BatchSize: 100, Level: 0.90}},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return func(body string) {
		resp, err := http.Post(ts.URL+path+"?backend="+feasim.BackendExact,
			"application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServedQuery measures the HTTP query service end to end on an
// empirical (exact-sim) threshold bisection — decode, dispatch, solve,
// encode. The cold path varies the seed every iteration so every request
// misses the cache and runs a fresh warm-started bisection; the hit path
// repeats one envelope, so after the first request everything is served
// from the answer LRU. The gap between the two is the cache's value under
// the heavy-traffic hot case.
func BenchmarkServedQuery(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		post := benchServer(b, "/v1/query")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(servedQueryEnvelope(i + 1))
		}
	})
	b.Run("hit", func(b *testing.B) {
		post := benchServer(b, "/v1/query")
		post(servedQueryEnvelope(1)) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(servedQueryEnvelope(1))
		}
	})
}

// servedBatchSize is the number of envelopes per /v1/batch request.
const servedBatchSize = 64

// BenchmarkServedBatch measures the batched hot path: 64 mixed envelopes
// (threshold, report and distribution queries on the exact backend, cycling
// through distinct seeds so the batch holds distinct cache keys) per
// /v1/batch request, all served from the answer LRU after the warm
// request, reported as envelopes/s. The acceptance bar is per-envelope
// throughput ≥ 5× the served query hit's request rate — one round trip and
// one pooled response encode amortized over the whole batch.
func BenchmarkServedBatch(b *testing.B) {
	b.Run(fmt.Sprintf("hit%d", servedBatchSize), func(b *testing.B) {
		var sb strings.Builder
		sb.WriteByte('[')
		for i := 0; i < servedBatchSize; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			seed := i/3 + 1
			switch i % 3 {
			case 0:
				sb.WriteString(servedQueryEnvelope(seed))
			case 1:
				fmt.Fprintf(&sb, `{"kind": "report", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.1, "seed": %d}}`, seed)
			case 2:
				fmt.Fprintf(&sb, `{"kind": "distribution", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.1, "seed": %d}, "deadlines": [150]}`, seed)
			}
		}
		sb.WriteByte(']')
		body := sb.String()
		post := benchServer(b, "/v1/batch")
		post(body) // warm: every distinct envelope solves once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(body)
		}
		b.ReportMetric(float64(servedBatchSize*b.N)/b.Elapsed().Seconds(), "env/s")
	})
}

// BenchmarkTimelineQuasiStatic measures the analytic timeline path on the
// 3-phase workday (morning ramp, afternoon peak, overnight idle) queried at
// 24 epochs: each answer is a quasi-static walk whose stationary kernel
// evaluations share the process-wide binomial-table memo, reported as epoch
// answers per second.
func BenchmarkTimelineQuasiStatic(b *testing.B) {
	const epochs = 24
	b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
		q := feasim.TimelineQuery{
			Scenario: feasim.Scenario{
				Name: "bench-workday", J: 400, W: 4, O: 10, Seed: 1993,
				Schedule: []feasim.PhaseSpec{
					{Name: "morning", Duration: 480, Util: 0.15},
					{Name: "afternoon", Duration: 480, Util: 0.3},
					{Name: "night", Duration: 480, Util: 0.02},
				},
			},
			Epochs: epochs,
		}
		solver := feasim.NewAnalyticSolver()
		for i := 0; i < b.N; i++ {
			a, err := solver.Answer(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if got := len(a.(feasim.TimelineAnswer).Epochs); got != epochs {
				b.Fatalf("got %d epochs, want %d", got, epochs)
			}
		}
		b.ReportMetric(float64(epochs*b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// cannedSolver answers instantly with a fixed-shape answer, so the cache
// contention benchmark measures the answer layer's locking and key hashing,
// not a backend.
type cannedSolver struct{}

func (cannedSolver) Name() string           { return feasim.BackendAnalytic }
func (cannedSolver) Capabilities() []string { return feasim.QueryKinds() }

func (c cannedSolver) Answer(_ context.Context, q feasim.Query) (feasim.Answer, error) {
	if rq, ok := q.(feasim.ReportQuery); ok {
		return feasim.ReportAnswer{Report: feasim.Report{Scenario: rq.Scenario, Backend: c.Name(), EJob: 1}}, nil
	}
	return feasim.ThresholdAnswer{Backend: c.Name(), MinRatio: 7}, nil
}

func (c cannedSolver) Solve(ctx context.Context, s feasim.Scenario) (feasim.Report, error) {
	a, err := c.Answer(ctx, feasim.ReportQuery{Scenario: s})
	if err != nil {
		return feasim.Report{}, err
	}
	return a.(feasim.ReportAnswer).Report, nil
}

// benchCacheHits measures the answer cache's hot path — repeated hits over
// a resident working set of 256 distinct keys — at a given shard count and
// parallelism.
func benchCacheHits(b *testing.B, shards, parallelism int) {
	cs := feasim.NewCachedSolver(cannedSolver{}, feasim.NewAnswerCacheShards(4096, shards))
	const keys = 256
	queries := make([]feasim.Query, keys)
	for i := range queries {
		// Distinct J per key (integral per-task demand at W=10) spreads
		// the working set across shards.
		queries[i] = feasim.ReportQuery{Scenario: feasim.Scenario{
			J: float64(1000 + 10*i), W: 10, O: 10, Util: 0.1,
		}}
	}
	ctx := context.Background()
	for _, q := range queries {
		if _, err := cs.Answer(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	if parallelism <= 1 {
		// The uncontended baseline must actually be uncontended: a plain
		// sequential loop, not RunParallel (whose goroutine count is
		// parallelism × GOMAXPROCS and would contend on any multi-core
		// host).
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, cached, err := cs.AnswerCached(ctx, queries[i%keys])
			if err != nil || !cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
		return
	}
	var failure atomic.Value
	b.SetParallelism(parallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_, cached, err := cs.AnswerCached(ctx, queries[i%keys])
			i++
			if err != nil || !cached {
				failure.Store(fmt.Sprintf("cached=%v err=%v", cached, err))
				return
			}
		}
	})
	if msg := failure.Load(); msg != nil {
		b.Fatal(msg)
	}
}

// BenchmarkAnswerCacheHit measures the answer cache's hot path over a
// resident 256-key working set: the single-mutex layout (shards=1, the
// pre-sharding baseline) against the deployed layout (shards sized to
// GOMAXPROCS — exactly one shard on a 1-CPU host, where there is no
// contention to shed) and a pinned 16-shard layout that records the
// contention relief explicitly.
func BenchmarkAnswerCacheHit(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		shards, par int
	}{
		{"mutex/p1", 1, 1},
		{"sharded/p1", 0, 1},
		{"mutex/p8", 1, 8},
		{"sharded/p8", 0, 8},
		{"sharded16/p1", 16, 1},
		{"sharded16/p8", 16, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) { benchCacheHits(b, cfg.shards, cfg.par) })
	}
}

// BenchmarkAnswerCacheFill fills a 4096-entry answer cache with distinct
// report answers, as cold traffic does, and reports the live heap each
// stored entry costs after a GC. Each query is built, answered and dropped
// in turn, so whatever of a request's scenario survives is held by the
// cache alone; the name string stands in for what a decoded envelope
// allocates. One shard keeps every entry resident (a sharded cache bounds
// each shard, so an uneven hash evicts before the total is reached).
func BenchmarkAnswerCacheFill(b *testing.B) {
	const entries = 4096
	ctx := context.Background()
	var perEntry float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cs := feasim.NewCachedSolver(cannedSolver{}, feasim.NewAnswerCacheShards(entries, 1))
		for k := 0; k < entries; k++ {
			q := feasim.ReportQuery{Scenario: feasim.Scenario{
				Name: fmt.Sprintf("point-%d", k), J: float64(1000 + 10*k), W: 10, O: 10, Util: 0.1,
			}}
			if _, err := cs.Answer(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if st := cs.Cache().Stats(); st.Entries != entries {
			b.Fatalf("%d entries resident, want %d", st.Entries, entries)
		}
		perEntry = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / entries
	}
	b.ReportMetric(perEntry, "live_B/entry")
}

// BenchmarkQueryThresholdSweep measures the typed query path: 40 analytic
// threshold bisections per op (20 utilizations × 2 system sizes, the
// conclusions-table question at each point), reported as full searches per
// second — the bisection driver and the kernel memo that the probes of
// every search share.
func BenchmarkQueryThresholdSweep(b *testing.B) {
	const points = 40
	utils := make([]float64, 0, 20)
	for u := 0.01; u <= 0.20+1e-9; u += 0.01 {
		utils = append(utils, u)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := feasim.QuerySweepSpec{
				Base:     feasim.ThresholdQuery{O: 10, TargetEff: 0.8},
				W:        []int{20, 60},
				Util:     utils,
				Backends: []string{feasim.BackendAnalytic},
				Seed:     1993,
				Workers:  workers,
			}
			for i := 0; i < b.N; i++ {
				res, err := feasim.CollectQuerySweep(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != points {
					b.Fatalf("got %d points, want %d", len(res), points)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// ---- Ablation benchmarks (DESIGN.md §6) ----

// BenchmarkAblationOwnerVariance quantifies the paper's optimism point 2:
// deterministic owner demands versus hyperexponential demands with CV²=16
// and the same mean. Reports mean job time for each.
func BenchmarkAblationOwnerVariance(b *testing.B) {
	mean := func(demand rng.Dist) float64 {
		cfg := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
		for i := range cfg.Stations {
			cfg.Stations[i].OwnerDemand = demand
		}
		cfg.Seed = 11
		g, err := sim.NewGeneral(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := g.Run(300)
		if err != nil {
			b.Fatal(err)
		}
		var s stats.Summary
		for _, x := range st.Samples {
			s.Add(x.JobTime)
		}
		return s.Mean()
	}
	var det, hyper float64
	for i := 0; i < b.N; i++ {
		det = mean(rng.Deterministic{V: 10})
		hyper = mean(rng.BalancedHyperExp(10, 16))
	}
	b.ReportMetric(det, "jobtime-det")
	b.ReportMetric(hyper, "jobtime-hyperCV16")
	if hyper <= det {
		b.Errorf("high-variance owners should slow the job: det %.2f, hyper %.2f", det, hyper)
	}
}

// BenchmarkAblationImbalance quantifies optimism point 1: deterministic
// task demands versus uniform demands with the same mean.
func BenchmarkAblationImbalance(b *testing.B) {
	mean := func(task rng.Dist) float64 {
		cfg := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
		cfg.TaskDemand = task
		cfg.Seed = 13
		g, err := sim.NewGeneral(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := g.Run(300)
		if err != nil {
			b.Fatal(err)
		}
		var s stats.Summary
		for _, x := range st.Samples {
			s.Add(x.JobTime)
		}
		return s.Mean()
	}
	var det, unif float64
	for i := 0; i < b.N; i++ {
		det = mean(rng.Deterministic{V: 100})
		unif = mean(rng.Uniform{Lo: 50, Hi: 150})
	}
	b.ReportMetric(det, "jobtime-balanced")
	b.ReportMetric(unif, "jobtime-imbalanced")
	if unif <= det {
		b.Errorf("imbalance should slow the job: det %.2f, unif %.2f", det, unif)
	}
}

// BenchmarkAblationNoGuarantee quantifies optimism point 3: the exact model
// guarantees one unit of task progress between owner bursts, the general
// (wall-clock) model does not. Reports both job-time means; the general
// model should be the slower one.
func BenchmarkAblationNoGuarantee(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(1200, 12, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	var exactMean, generalMean float64
	for i := 0; i < b.N; i++ {
		x, err := sim.NewExact(p, 17)
		if err != nil {
			b.Fatal(err)
		}
		var xs stats.Summary
		for j := 0; j < 2000; j++ {
			xs.Add(x.Sample().JobTime)
		}
		exactMean = xs.Mean()

		cfg := sim.HomogeneousGeometric(12, 100, 10, p.P)
		cfg.Seed = 17
		g, err := sim.NewGeneral(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := g.Run(400)
		if err != nil {
			b.Fatal(err)
		}
		var gs stats.Summary
		for _, s := range st.Samples {
			gs.Add(s.JobTime)
		}
		generalMean = gs.Mean()
	}
	b.ReportMetric(exactMean, "jobtime-guaranteed")
	b.ReportMetric(generalMean, "jobtime-wallclock")
}

// BenchmarkAblationTrialsConvention compares the rounded-trials convention
// (used by the figures) against floor/ceil interpolation for non-integral
// T, reporting the largest E_j disagreement across a W sweep.
func BenchmarkAblationTrialsConvention(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for w := 1; w <= 100; w++ {
			p, err := feasim.ParamsFromUtilization(1000, w, 10, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			r1, err := core.Analyze(p.Fleet())
			if err != nil {
				b.Fatal(err)
			}
			r2, err := core.AnalyzeInterpolated(p)
			if err != nil {
				b.Fatal(err)
			}
			rel := (r1.EJob - r2.EJob) / r2.EJob
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "maxdisagreement-%")
}

// ---- Extension experiments as benchmarks ----

func BenchmarkExtension01OwnerVariance(b *testing.B) {
	runExperiment(b, "ext01", "monotoneInCV2")
}

func BenchmarkExtension02MultiJob(b *testing.B) {
	runExperiment(b, "ext02", "response@K1")
}

// BenchmarkAblationGumbel compares the O(1) extreme-value approximation of
// E[max] against the exact O(T) computation across the scaled-problem
// regime, reporting the worst relative E_j error and the speedup factor.
func BenchmarkAblationGumbel(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, w := range []int{8, 20, 60, 100} {
			p, err := feasim.ParamsFromUtilization(1e5*float64(w), w, 10, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			exact, err := core.Analyze(p.Fleet())
			if err != nil {
				b.Fatal(err)
			}
			approx, err := core.AnalyzeGumbel(p)
			if err != nil {
				b.Fatal(err)
			}
			rel := (approx.EJob - exact.EJob) / exact.EJob
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "worstErr-%")
}

func BenchmarkExtension03Heterogeneity(b *testing.B) {
	runExperiment(b, "ext03", "monotoneInSpread")
}
