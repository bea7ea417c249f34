// Command feasim evaluates the non-dedicated distributed computing
// feasibility model from the command line.
//
// Subcommands:
//
//	query      answer a typed query envelope ({"kind": ...} JSON) with any
//	           capable backend: report, threshold, partition, distribution,
//	           scaled, timeline; -batch answers a JSON array of envelopes
//	           concurrently
//	serve      run the query service: the same envelopes over HTTP
//	           (POST /v1/query, POST /v1/batch, POST /v1/sweep) with answer
//	           caching and request coalescing in front of the backends;
//	           -self/-peers joins a multi-node answer tier (consistent-hash
//	           routing, circuit-breaker peer health, retries, hedged
//	           forwards, local fallback); -chaos injects seeded faults,
//	           -shed-analytic opts into degraded-mode load shedding
//	cluster    inspect a running node's cluster view: ring membership,
//	           ownership, breaker states, forward/retry/hedge/fallback and
//	           overload counters
//	run        answer a scenario JSON file with any or all solver backends
//	           (the "report" query kind as a convenience form)
//	sweep      fan a report grid (a scenario under "base" plus axis lists)
//	           across a parallel worker pool; -frontier runs an adaptive
//	           2-D feasibility-boundary refinement instead, probing only
//	           where the boundary lives
//	analyze    evaluate the model at one parameter point
//	assess     feasibility verdict against a weighted-efficiency target
//	simulate   validate the analysis by simulation (Section 2.2): one
//	           scenario answered by the analytic and exact backends
//
// Examples:
//
//	feasim query testdata/query_threshold.json
//	feasim query -backend exact -protocol 10,500 testdata/query_threshold.json
//	feasim query -backend all -json testdata/query_distribution.json
//	feasim serve -addr 127.0.0.1:8080
//	curl -s -XPOST --data-binary @testdata/query_threshold.json \
//	    'http://127.0.0.1:8080/v1/query?backend=analytic'
//	feasim run testdata/scenario.json
//	feasim run -backend des -warmup 20 -timeout 30s scenario.json
//	feasim sweep -workers 8 -json sweep.json
//	feasim sweep -frontier testdata/sweep_frontier.json
//	curl -sN -XPOST --data-binary @testdata/sweep_frontier.json \
//	    'http://127.0.0.1:8080/v1/sweep?mode=frontier'
//	feasim analyze -j 1000 -w 100 -o 10 -util 0.05
//	feasim assess -j 600 -w 60 -o 10 -util 0.2 -target 0.8
//	feasim simulate -j 1000 -w 50 -o 10 -util 0.2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"feasim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "query":
		err = cmdQuery(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "assess":
		err = cmdAssess(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "feasim: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "feasim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: feasim <query|serve|cluster|run|sweep|analyze|assess|simulate> [flags]

query answers a typed query envelope file — {"kind": "report"|"threshold"|
"partition"|"distribution"|"scaled"|"timeline", ...} — with any capable
backend (-batch answers a JSON array of envelopes concurrently; threshold
tables and scaled curves are threshold and scaled envelopes); serve
answers the same envelopes over HTTP (POST /v1/query, /v1/batch,
/v1/sweep) with answer caching and request coalescing, and with
-self/-peers joins a multi-node answer tier (circuit breakers, retries,
hedged forwards; -chaos injects seeded faults for drills); cluster
inspects a running node's ring membership, breaker states and
routing/overload counters (GET /v1/cluster); run answers a scenario file
and sweep a report grid file (the "report" kind; sweep -frontier runs an
adaptive 2-D feasibility-boundary refinement, mirrored over HTTP as POST
/v1/sweep?mode=frontier NDJSON); analyze and assess evaluate one model
point; simulate checks the analysis against the exact simulator's
confidence intervals. Run "feasim <subcommand> -h" for flags.`)
}

// solveContext builds the run/sweep context, honoring an optional timeout.
func solveContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// parseProtocol parses the shared -protocol flag ("batches,batchsize", e.g.
// "20,1000"); empty keeps the paper's protocol.
func parseProtocol(spec string) (feasim.Protocol, error) {
	if spec == "" {
		return feasim.DefaultProtocol(), nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return feasim.Protocol{}, fmt.Errorf("bad -protocol %q: want batches,batchsize", spec)
	}
	b, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return feasim.Protocol{}, fmt.Errorf("bad -protocol %q: %v", spec, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return feasim.Protocol{}, fmt.Errorf("bad -protocol %q: %v", spec, err)
	}
	pr := feasim.DefaultProtocol()
	pr.Batches, pr.BatchSize = b, n
	return pr, nil
}

// cmdRun answers one scenario file with the selected backend(s).
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	backend := fs.String("backend", "all", `solver backend: analytic, exact, des, or "all"`)
	protocol := fs.String("protocol", "", "simulation protocol as batches,batchsize (default: the paper's 20,1000)")
	warmup := fs.Int("warmup", 0, "DES warmup job count (0 = default, negative disables)")
	timeout := fs.Duration("timeout", 0, "overall deadline for the solve (0 = none)")
	asJSON := fs.Bool("json", false, "emit reports as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want exactly one scenario JSON file, got %d args", fs.NArg())
	}
	s, err := feasim.LoadScenario(fs.Arg(0))
	if err != nil {
		return err
	}
	pr, err := parseProtocol(*protocol)
	if err != nil {
		return err
	}
	backends := []string{*backend}
	if *backend == "all" {
		backends = feasim.Backends()
	}
	ctx, cancel := solveContext(*timeout)
	defer cancel()
	for _, name := range backends {
		solver, err := feasim.NewSolver(name, feasim.SolverOptions{Protocol: pr, Warmup: *warmup})
		if err != nil {
			return err
		}
		rep, err := solver.Solve(ctx, s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *asJSON {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		} else {
			printReport(rep)
		}
	}
	return nil
}

// printReport renders one report as aligned text.
func printReport(r feasim.Report) {
	name := r.Scenario.Name
	if name == "" {
		name = "scenario"
	}
	fmt.Printf("%s [%s] W=%d util=%.4g\n", name, r.Backend, r.W, r.U)
	ci := func(iv feasim.Interval) string {
		if iv.Zero() {
			return ""
		}
		return fmt.Sprintf("  [%.4f, %.4f]", iv.Lo, iv.Hi)
	}
	fmt.Printf("  E[job time]            %12.4f%s\n", r.EJob, ci(r.EJobCI))
	fmt.Printf("  E[task time]           %12.4f%s\n", r.ETask, ci(r.ETaskCI))
	if r.TaskRatio > 0 {
		fmt.Printf("  task ratio T/O         %12.4f\n", r.TaskRatio)
	}
	fmt.Printf("  speedup                %12.4f\n", r.Speedup)
	fmt.Printf("  efficiency             %12.4f\n", r.Efficiency)
	fmt.Printf("  weighted efficiency    %12.4f%s\n", r.WeightedEfficiency, ci(r.WeffCI))
	if r.Samples > 0 {
		fmt.Printf("  samples                %12d\n", r.Samples)
	}
	if r.Feasible != nil {
		verdict := "FEASIBLE"
		if !*r.Feasible {
			verdict = "NOT FEASIBLE"
		}
		fmt.Printf("  verdict                %12s (target %.2f)\n", verdict, r.Scenario.TargetEff)
		if r.MinRatio > 0 {
			fmt.Printf("  required task ratio    %12d (J >= %.0f)\n", r.MinRatio, r.MinJobDemand)
		}
	}
	if r.DeadlineProb != nil {
		fmt.Printf("  P(done by %-8.4g)    %12.6f\n", r.Scenario.Deadline, *r.DeadlineProb)
	}
}

// gridPoint is the -json line of one report grid point; a failed point
// carries its error and no report.
type gridPoint struct {
	Point struct {
		Index    int             `json:"index"`
		Backend  string          `json:"backend"`
		Scenario feasim.Scenario `json:"scenario"`
	} `json:"point"`
	Report *feasim.Report `json:"report,omitempty"`
	Error  string         `json:"error,omitempty"`
	Cached bool           `json:"cached,omitempty"`
}

// cmdSweep fans a report grid file across the worker pool, streaming one
// line per grid point as results complete. With -frontier the file is an
// adaptive frontier spec instead: recursive boundary refinement, one line
// per resolved cell.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "overall deadline for the sweep (0 = none)")
	asJSON := fs.Bool("json", false, "emit one JSON object per result line")
	frontier := fs.Bool("frontier", false, "the file is a frontier spec: adaptive 2-D boundary refinement")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep: want exactly one sweep spec JSON file, got %d args", fs.NArg())
	}
	if *frontier {
		return sweepFrontier(fs.Arg(0), *workers, *timeout, *asJSON)
	}
	spec, err := feasim.LoadReportSweep(fs.Arg(0))
	if err != nil {
		return err
	}
	if *workers > 0 {
		spec.Workers = *workers
	}
	ctx, cancel := solveContext(*timeout)
	defer cancel()
	ch, err := feasim.RunQuerySweep(ctx, spec)
	if err != nil {
		return err
	}
	if !*asJSON {
		fmt.Printf("%-6s %-9s %-5s %-8s %-8s %-10s %-22s %s\n",
			"point", "backend", "W", "util", "ratio", "weff", "E[job]", "notes")
	}
	done, failed := 0, 0
	for res := range ch {
		if res.Err != nil {
			failed++
		} else {
			done++
		}
		var g gridPoint
		g.Point.Index, g.Point.Backend = res.Point.Index, res.Point.Backend
		g.Point.Scenario = res.Point.Query.(feasim.ReportQuery).Scenario
		ra, ok := res.Answer.(feasim.ReportAnswer)
		if ok {
			g.Report = &ra.Report
		}
		g.Error, g.Cached = res.Error, res.Cached
		if *asJSON {
			data, err := json.Marshal(g)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			continue
		}
		if res.Err != nil {
			fmt.Printf("%-6d %-9s %-5s %-8s %-8s %-10s %-22s error: %v\n",
				res.Point.Index, res.Point.Backend, "-", "-", "-", "-", "-", res.Err)
			continue
		}
		r := ra.Report
		notes := ""
		if res.Cached {
			notes = "cached"
		}
		ejob := fmt.Sprintf("%.3f", r.EJob)
		if !r.EJobCI.Zero() {
			ejob = fmt.Sprintf("%.3f±%.3f", r.EJob, r.EJobCI.Width()/2)
		}
		fmt.Printf("%-6d %-9s %-5d %-8.4g %-8.4g %-10.4f %-22s %s\n",
			res.Point.Index, res.Point.Backend, r.W, r.U, r.TaskRatio, r.WeightedEfficiency, ejob, notes)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sweep stopped after %d points: %w", done+failed, err)
	}
	if failed > 0 {
		return fmt.Errorf("sweep finished: %d points solved, %d failed", done, failed)
	}
	fmt.Printf("%d points solved\n", done)
	return nil
}

// sweepFrontier runs the adaptive-refinement half of cmdSweep: cells stream
// in level order as they resolve, followed by the probe-count stats line —
// the adaptive saving over the equivalent dense grid, printed for audit.
func sweepFrontier(path string, workers int, timeout time.Duration, asJSON bool) error {
	spec, err := feasim.LoadFrontier(path)
	if err != nil {
		return err
	}
	if workers > 0 {
		spec.Workers = workers
	}
	ctx, cancel := solveContext(timeout)
	defer cancel()
	ch, stats, err := feasim.RunFrontier(ctx, spec)
	if err != nil {
		return err
	}
	if !asJSON {
		fmt.Printf("%-6s %-10s %-22s %-22s %s\n", "depth", "cell", "x range", "y range", "verdict")
	}
	cells := 0
	for c := range ch {
		cells++
		if asJSON {
			data, err := json.Marshal(c)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			continue
		}
		verdict := c.Verdict
		if c.Error != "" {
			verdict += ": " + c.Error
		}
		fmt.Printf("%-6d %-10s %-22s %-22s %s\n",
			c.Depth, fmt.Sprintf("%d,%d", c.IX, c.IY),
			fmt.Sprintf("[%.4g, %.4g]", c.X0, c.X1),
			fmt.Sprintf("[%.4g, %.4g]", c.Y0, c.Y1), verdict)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("frontier sweep stopped after %d cells: %w", cells, err)
	}
	st := stats()
	if asJSON {
		data, err := json.Marshal(struct {
			Done  bool                 `json:"done"`
			Stats feasim.FrontierStats `json:"stats"`
		}{true, st})
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Printf("resolution %d: %d cells (%d boundary), %d probes vs %d dense\n",
			st.Resolution, st.Cells, st.Boundary, st.Evaluations, st.DenseEvaluations)
	}
	if st.Failed > 0 {
		return fmt.Errorf("frontier sweep finished: %d cells failed to classify", st.Failed)
	}
	return nil
}

// modelFlags registers the shared model parameters on a flag set.
func modelFlags(fs *flag.FlagSet) (j *float64, w *int, o, util *float64) {
	j = fs.Float64("j", 1000, "total job demand J (time units)")
	w = fs.Int("w", 60, "number of workstations W")
	o = fs.Float64("o", 10, "owner burst demand O (time units)")
	util = fs.Float64("util", 0.05, "owner utilization U in [0,1)")
	return
}

func buildParams(j float64, w int, o, util float64) (feasim.Params, error) {
	return feasim.ParamsFromUtilization(j, w, o, util)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	j, w, o, util := modelFlags(fs)
	fs.Parse(args)
	p, err := buildParams(*j, *w, *o, *util)
	if err != nil {
		return err
	}
	r, err := feasim.Analyze(p.Fleet())
	if err != nil {
		return err
	}
	fmt.Printf("model: J=%g W=%d O=%g P=%.6g (owner utilization %.4g)\n", p.J, p.W, p.O, p.P, r.U)
	fmt.Printf("  task demand T          %12.4f\n", r.T)
	fmt.Printf("  task ratio T/O         %12.4f\n", r.Metrics.TaskRatio)
	fmt.Printf("  E[task time]           %12.4f\n", r.ETask)
	fmt.Printf("  E[job time]            %12.4f\n", r.EJob)
	fmt.Printf("  speedup                %12.4f\n", r.Speedup)
	fmt.Printf("  efficiency             %12.4f\n", r.Efficiency)
	fmt.Printf("  weighted speedup       %12.4f\n", r.WeightedSpeedup)
	fmt.Printf("  weighted efficiency    %12.4f\n", r.WeightedEfficiency)
	return nil
}

func cmdAssess(args []string) error {
	fs := flag.NewFlagSet("assess", flag.ExitOnError)
	j, w, o, util := modelFlags(fs)
	target := fs.Float64("target", 0.8, "target weighted efficiency")
	fs.Parse(args)
	p, err := buildParams(*j, *w, *o, *util)
	if err != nil {
		return err
	}
	v, err := feasim.Assess(p.Fleet(), *target)
	if err != nil {
		return err
	}
	verdict := "FEASIBLE"
	if !v.Feasible {
		verdict = "NOT FEASIBLE"
	}
	fmt.Printf("%s: weighted efficiency %.3f vs target %.3f\n", verdict, v.WeightedEfficiency, v.Target)
	fmt.Printf("  current task ratio  %.2f\n", v.Result.Metrics.TaskRatio)
	fmt.Printf("  required task ratio %d\n", v.MinRatio)
	fmt.Printf("  required job demand %.0f (current %.0f)\n", v.MinJobDemand, p.J)
	return nil
}

// cmdSimulate is the paper's validation (Section 2.2): one scenario
// answered by the analytic and exact backends, with the analysis checked
// against the simulated confidence intervals widened by half.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	j, w, o, util := modelFlags(fs)
	seed := fs.Uint64("seed", 1993, "random seed")
	batches := fs.Int("batches", 20, "batch count (paper: 20)")
	batchSize := fs.Int("batchsize", 1000, "batch size (paper: 1000)")
	fs.Parse(args)
	s := feasim.Scenario{J: *j, W: *w, O: *o, Util: *util, Seed: *seed}
	ctx := context.Background()
	ana, err := feasim.NewAnalyticSolver().Solve(ctx, s)
	if err != nil {
		return err
	}
	pr := feasim.Protocol{Batches: *batches, BatchSize: *batchSize, Level: 0.90, MaxRel: 0.01, MaxSamples: 2_000_000}
	run, err := feasim.NewExactSimSolver(pr).Solve(ctx, s)
	if err != nil {
		return err
	}
	ci := func(mean float64, iv feasim.Interval) string {
		return fmt.Sprintf("%.6g ± %.3g (%.0f%%)", mean, iv.Width()/2, pr.Level*100)
	}
	fmt.Printf("simulation (%d samples, 90%% CIs):\n", run.Samples)
	fmt.Printf("  E[job time]  analysis %10.4f   simulated %s\n", ana.EJob, ci(run.EJob, run.EJobCI))
	fmt.Printf("  E[task time] analysis %10.4f   simulated %s\n", ana.ETask, ci(run.ETask, run.ETaskCI))
	if run.EJobCI.Widen(0.5).Contains(ana.EJob) && run.ETaskCI.Widen(0.5).Contains(ana.ETask) {
		fmt.Println("  analysis within simulation confidence intervals ✓")
	} else {
		fmt.Println("  analysis OUTSIDE simulation confidence intervals ✗")
	}
	return nil
}
