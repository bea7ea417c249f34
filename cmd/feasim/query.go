package main

// The query subcommand answers a typed query envelope file — any of the
// paper's question kinds ("report", "threshold", "partition",
// "distribution", "scaled", "timeline") — with any capable backend. With -batch the
// file holds a JSON array of envelopes, answered concurrently through a
// shared answer cache (duplicates solve once), mirroring the HTTP service's
// POST /v1/batch.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"feasim"
	"feasim/internal/solve"
)

// cmdQuery answers one query envelope file with the selected backend(s).
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	backend := fs.String("backend", "analytic", `solver backend: analytic, exact, des, or "all" (every capable backend)`)
	protocol := fs.String("protocol", "", "simulation protocol as batches,batchsize (default: the paper's 20,1000)")
	warmup := fs.Int("warmup", 0, "DES warmup job count (0 = default, negative disables)")
	timeout := fs.Duration("timeout", 0, "overall deadline for the solve (0 = none)")
	asJSON := fs.Bool("json", false, "emit answers as JSON")
	batch := fs.Bool("batch", false, "the file holds a JSON array of envelopes, answered concurrently with per-item results")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query: want exactly one query envelope JSON file, got %d args", fs.NArg())
	}
	pr0, err := parseProtocol(*protocol)
	if err != nil {
		return err
	}
	if *batch {
		if *backend == "all" {
			return fmt.Errorf("query: -batch answers with one backend (got -backend all)")
		}
		return runBatchQuery(fs.Arg(0), *backend, feasim.SolverOptions{Protocol: pr0, Warmup: *warmup}, *timeout, *asJSON)
	}
	q, err := feasim.LoadQuery(fs.Arg(0))
	if err != nil {
		return err
	}
	pr := pr0
	all := *backend == "all"
	backends := []string{*backend}
	if all {
		backends = feasim.Backends()
	}
	ctx, cancel := solveContext(*timeout)
	defer cancel()
	for _, name := range backends {
		solver, err := feasim.NewSolver(name, feasim.SolverOptions{Protocol: pr, Warmup: *warmup})
		if err != nil {
			return err
		}
		a, err := solver.Answer(ctx, q)
		if errors.Is(err, feasim.ErrUnsupported) && all {
			fmt.Printf("%s: skipped (%q queries unsupported)\n", name, q.Kind())
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *asJSON {
			data, err := json.MarshalIndent(struct {
				Kind   string        `json:"kind"`
				Answer feasim.Answer `json:"answer"`
			}{a.Kind(), a}, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		} else {
			printAnswer(a)
		}
	}
	return nil
}

// batchResult is one item of a -batch run, in input order.
type batchResult struct {
	ans    feasim.Answer
	cached bool
	err    error
}

// runBatchQuery answers a JSON array of envelopes concurrently through one
// CachedSolver — the CLI twin of POST /v1/batch. Items fail individually; the
// command only errors when nothing could be answered at all.
func runBatchQuery(path, backend string, opts feasim.SolverOptions, timeout time.Duration, asJSON bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var envs []json.RawMessage
	if err := json.Unmarshal(data, &envs); err != nil {
		return fmt.Errorf("query: -batch wants a JSON array of query envelopes: %w", err)
	}
	if len(envs) == 0 {
		return fmt.Errorf("query: empty batch")
	}
	inner, err := feasim.NewSolver(backend, opts)
	if err != nil {
		return err
	}
	solver := feasim.NewCachedSolver(inner, nil)
	ctx, cancel := solveContext(timeout)
	defer cancel()

	results := make([]batchResult, len(envs))
	// WithoutCancel: after ctx ends each item still gets its own deadline error.
	solve.ForEach(context.WithoutCancel(ctx), len(envs), runtime.GOMAXPROCS(0), func(i int) {
		q, err := feasim.ParseQuery(envs[i])
		if err != nil {
			results[i] = batchResult{err: err}
			return
		}
		a, cached, err := solver.AnswerCached(ctx, q)
		results[i] = batchResult{ans: a, cached: cached, err: err}
	})

	failed := 0
	if asJSON {
		type itemJSON struct {
			Kind   string        `json:"kind,omitempty"`
			Cached bool          `json:"cached,omitempty"`
			Answer feasim.Answer `json:"answer,omitempty"`
			Error  string        `json:"error,omitempty"`
		}
		items := make([]itemJSON, len(results))
		for i, r := range results {
			if r.err != nil {
				items[i] = itemJSON{Error: r.err.Error()}
				failed++
				continue
			}
			items[i] = itemJSON{Kind: r.ans.Kind(), Cached: r.cached, Answer: r.ans}
		}
		out, err := json.MarshalIndent(items, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		for i, r := range results {
			fmt.Printf("=== item %d\n", i)
			if r.err != nil {
				fmt.Printf("error: %v\n", r.err)
				failed++
				continue
			}
			printAnswer(r.ans)
		}
		fmt.Printf("batch: %d answered, %d failed\n", len(results)-failed, failed)
	}
	if failed == len(results) {
		return fmt.Errorf("query: every batch item failed")
	}
	return nil
}

// printAnswer renders one typed answer as aligned text.
func printAnswer(a feasim.Answer) {
	switch t := a.(type) {
	case feasim.ReportAnswer:
		printReport(t.Report)
	case feasim.ThresholdAnswer:
		fmt.Printf("threshold [%s]\n", t.Backend)
		fmt.Printf("  min task ratio         %12d\n", t.MinRatio)
		fmt.Printf("  min job demand         %12.0f\n", t.MinJobDemand)
		fmt.Printf("  achieved weff          %12.4f\n", t.AchievedWeff)
		if !t.WeffCI.Zero() {
			fmt.Printf("  weff CI at boundary    [%.4f, %.4f]\n", t.WeffCI.Lo, t.WeffCI.Hi)
		}
		if t.Probes > 0 {
			fmt.Printf("  bisection probes       %12d (%d simulated jobs)\n", t.Probes, t.Samples)
		}
	case feasim.PartitionAnswer:
		fmt.Printf("partition [%s]\n", t.Backend)
		fmt.Printf("  workstations           %12d\n", t.W)
		if t.Probes > 0 {
			fmt.Printf("  bisection probes       %12d (%d simulated jobs)\n", t.Probes, t.Samples)
		}
		printReport(t.Report)
	case feasim.DistributionAnswer:
		name := t.Scenario.Name
		if name == "" {
			name = "scenario"
		}
		fmt.Printf("distribution [%s] %s\n", t.Backend, name)
		fmt.Printf("  mean job time          %12.4f\n", t.Mean)
		fmt.Printf("  std dev                %12.4f\n", t.StdDev)
		for _, qv := range t.Quantiles {
			fmt.Printf("  q%-5.3g                 %12.4f\n", qv.Q*100, qv.Time)
		}
		for _, dv := range t.Deadlines {
			fmt.Printf("  P(done by %-9.4g)   %12.6f\n", dv.Deadline, dv.Prob)
		}
		if t.Samples > 0 {
			fmt.Printf("  samples                %12d\n", t.Samples)
		}
	case feasim.TimelineAnswer:
		name := t.Scenario.Name
		if name == "" {
			name = "scenario"
		}
		fmt.Printf("timeline [%s] %s\n", t.Backend, name)
		fmt.Printf("  cycle length           %12.4g\n", t.CycleLength)
		fmt.Printf("  mean utilization       %12.4f\n", t.MeanUtil)
		fmt.Printf("  %-10s %-12s %-8s %-10s %-12s %-10s %s\n",
			"start", "phase", "util", "mean util", "E[job]", "weff", "feasible")
		for _, ep := range t.Epochs {
			feas := "-"
			if ep.Feasible != nil {
				feas = fmt.Sprintf("%v", *ep.Feasible)
			}
			fmt.Printf("  %-10.4g %-12s %-8.3g %-10.4f %-12.4f %-10.4f %s\n",
				ep.Start, ep.Phase, ep.Util, ep.MeanUtil, ep.EJob, ep.WeightedEfficiency, feas)
		}
	case feasim.ScaledAnswer:
		fmt.Printf("scaled [%s]\n", t.Backend)
		fmt.Printf("  %-6s %-12s %-14s %-14s %s\n", "W", "E[job]", "vs dedicated", "vs W=1", "weff")
		for _, pt := range t.Points {
			fmt.Printf("  %-6d %-12.3f %-14s %-14s %.4f\n", pt.W, pt.EJob,
				fmt.Sprintf("%+.1f%%", pt.IncreaseVsDedicated*100),
				fmt.Sprintf("%+.1f%%", pt.IncreaseVsSingle*100),
				pt.WeightedEff)
		}
	default:
		fmt.Printf("%#v\n", a)
	}
}
