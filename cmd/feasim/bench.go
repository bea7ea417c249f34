package main

// The bench subcommand runs the repository's core performance benchmarks
// in-process (via testing.Benchmark, no go toolchain needed at runtime) and
// emits a machine-readable JSON report, so CI can track the performance
// trajectory of the analytic kernel and the sweep engine across PRs.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"feasim"
	"feasim/internal/benchgrid"
	"feasim/internal/core"
)

// benchResult is one benchmark's measurements.
type benchResult struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// benchReport is the BENCH_*.json schema.
type benchReport struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUs       int           `json:"cpus"`
	UnixTime   int64         `json:"unix_time"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// cmdBench runs the benchmark suite and writes the JSON report.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_10.json", "output JSON file")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected arguments %v", fs.Args())
	}

	small, err := feasim.ParamsFromUtilization(1000, 100, 10, 0.1)
	if err != nil {
		return err
	}
	// The scaled-problem regime: T = 100k units per task (mirrors the test
	// suite's BenchmarkAnalyzeLargeT).
	large, err := feasim.ParamsFromUtilization(1e7, 100, 10, 0.1)
	if err != nil {
		return err
	}
	// The sweep grids are the canonical ones of internal/benchgrid, shared
	// with the in-repo BenchmarkSweep so the tracked artifact and the test
	// suite's benchmark measure the same workloads.
	sweepPoints := func(spec feasim.SweepSpec) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := feasim.CollectSweep(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != benchgrid.Points {
					b.Fatalf("got %d points, want %d", len(res), benchgrid.Points)
				}
			}
			b.ReportMetric(float64(benchgrid.Points*b.N)/b.Elapsed().Seconds(), "points/s")
		}
	}

	suite := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"analyze_small", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := feasim.Analyze(small.Fleet()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"analyze_large_t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := feasim.Analyze(large.Fleet()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"binomial_table_build", func(b *testing.B) {
			// A truly fresh (N, P) every iteration (P strictly increasing,
			// never repeating), so every call takes the miss path: this
			// measures build + memo insert, including the eviction the
			// bounded cache pays under a stream of distinct keys.
			for i := 0; i < b.N; i++ {
				core.Tables(100000, 0.01+float64(i)*1e-12)
			}
		}},
		{"poisson_binomial_tables", func(b *testing.B) {
			// The heterogeneous-fleet kernel on the miss path: a fresh
			// 4-class, 6400-trial mix every iteration (the jitter never
			// repeats a key), measuring the group DP build + memo insert —
			// the generalized analogue of binomial_table_build.
			for i := 0; i < b.N; i++ {
				jitter := float64(i) * 1e-12
				if _, err := core.PoissonBinomial([]core.PBGroup{
					{P: 0.02 + jitter, Count: 1600},
					{P: 0.05 + jitter, Count: 1600},
					{P: 0.08 + jitter, Count: 1600},
					{P: 0.12 + jitter, Count: 1600},
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sweep_analytic_grid", sweepPoints(benchgrid.AnalyticGrid())},
		{"sweep_fixed_tp", sweepPoints(benchgrid.FixedTPGrid())},
		// The adaptive frontier path: boundary refinement to resolution 32
		// on the canonical workload. cells/s is throughput; dense_per_probe
		// records the probe-count saving over the equivalent dense grid.
		{"sweep_frontier", benchgrid.FrontierBench()},
		// The typed query path: a grid of analytic threshold bisections
		// (points/s = full searches per second, not single solves).
		{"query_threshold_grid", func(b *testing.B) {
			spec := benchgrid.ThresholdGrid()
			for i := 0; i < b.N; i++ {
				res, err := feasim.CollectQuerySweep(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != benchgrid.ThresholdPoints {
					b.Fatalf("got %d points, want %d", len(res), benchgrid.ThresholdPoints)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(benchgrid.ThresholdPoints*b.N)/b.Elapsed().Seconds(), "points/s")
		}},
		// The timeline query path: the canonical 3-phase workday answered by
		// the analytic quasi-static walker at 24 epochs (points/s = epoch
		// answers per second).
		{"timeline_quasistatic", benchgrid.TimelineQuasiStaticBench()},
		// The served-query pair: one empirical (exact-sim) threshold
		// bisection through the full HTTP service. Cold varies the seed so
		// every request misses the answer cache; hit repeats one envelope,
		// so everything after the first request is an LRU hit — the
		// heavy-traffic hot case the serve layer exists for.
		{"served_query_cold", benchgrid.ServedQueryBench(false)},
		{"served_query_hit", benchgrid.ServedQueryBench(true)},
		// The batched hot path: 64 mixed envelopes per /v1/batch request,
		// all answered from the LRU after the warm request. env/s is the
		// per-envelope throughput the acceptance bar compares against
		// served_query_hit's request rate.
		{"served_batch", benchgrid.ServedBatchBench()},
		// The multi-node answer tier's added hop: every measured request
		// enters a 3-node ring at a non-home node and is served by
		// forwarding to the home's warm cache (the entry node's one-answer
		// cache keeps the replica path from absorbing the workload). Compare
		// against served_query_hit: the delta is the cost of peer routing
		// when the local replica cache misses.
		{"cluster_forward_hit", benchgrid.ClusterForwardBench()},
		// The answer-cache hot path at 1 shard (the pre-sharding
		// single-mutex baseline) vs the deployed layout (shards sized to
		// GOMAXPROCS — one shard on a 1-CPU host, so the default never pays
		// the shard hash where it cannot shed contention), uncontended (p1)
		// and with goroutine parallelism (p8). The deployed layout must not
		// lose to mutex at p1; the pinned 16-shard rows record the shard
		// hash tax and the contention relief explicitly.
		{"cache_hits_mutex_p1", benchgrid.CacheHitContentionBench(1, 1)},
		{"cache_hits_sharded_p1", benchgrid.CacheHitContentionBench(0, 1)},
		{"cache_hits_mutex_p8", benchgrid.CacheHitContentionBench(1, 8)},
		{"cache_hits_sharded_p8", benchgrid.CacheHitContentionBench(0, 8)},
		{"cache_hits_sharded16_p1", benchgrid.CacheHitContentionBench(16, 1)},
		{"cache_hits_sharded16_p8", benchgrid.CacheHitContentionBench(16, 8)},
	}

	rep := benchReport{
		Schema:   "feasim-bench/1",
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		UnixTime: time.Now().Unix(),
	}
	for _, bm := range suite {
		r := testing.Benchmark(bm.fn)
		br := benchResult{
			Name:        bm.name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			br.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				br.Extra[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
		fmt.Printf("%-22s %12.0f ns/op  %8d iters", bm.name, br.NsPerOp, br.Iters)
		for k, v := range br.Extra {
			fmt.Printf("  %.0f %s", v, k)
		}
		fmt.Println()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
