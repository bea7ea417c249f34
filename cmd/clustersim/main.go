// Command clustersim runs the general (DES-based) simulator with arbitrary
// owner and task distributions — the paper's stated future work on
// higher-variance service demands and load imbalance.
//
// Distributions use the spec syntax of feasim.ParseDist:
//
//	det:10  exp:10  erlang:4,10  hyper:0.1,55,5  pareto:6,2.5  geom:0.01  unif:5,15
//
// Usage:
//
//	clustersim -w 12 -task det:100 -think geom:0.0034 -owner det:10 -samples 20000
//	clustersim -w 12 -task unif:50,150 -think exp:300 -owner hyper:0.9,5,55
//	clustersim -w 4 -task det:100 -owner det:10 \
//	    -workday morning:480:0.15,afternoon:480:0.3,night:480:0.02
//
// The tool prints the measured job-time CI and, when the workload matches
// the paper's model shape (deterministic tasks and owner bursts), the
// analytic prediction for comparison.
//
// With -workday the owners follow a repeating utilization schedule instead
// of a stationary think/burst loop. That experiment is not run against the
// raw simulator: it is phrased as a {"kind": "timeline"} query and answered
// through the Query API — the same envelope `feasim query` and the HTTP
// service accept — with the analytic quasi-static walker and the DES replay
// side by side.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"feasim"
)

func main() {
	w := flag.Int("w", 12, "number of workstations")
	taskSpec := flag.String("task", "det:100", "per-task demand distribution")
	thinkSpec := flag.String("think", "geom:0.01", "owner think-time distribution (wall clock)")
	ownerSpec := flag.String("owner", "det:10", "owner burst demand distribution")
	workday := flag.String("workday", "", "owner workday phases as name:duration:util,... — answered as a timeline query through the Query API")
	samples := flag.Int("samples", 20000, "measured job executions (with -workday: DES replications per epoch)")
	warmup := flag.Int("warmup", 50, "discarded warmup jobs")
	seed := flag.Uint64("seed", 1993, "random seed")
	flag.Parse()

	var err error
	if *workday != "" {
		err = runWorkday(*w, *taskSpec, *ownerSpec, *workday, *samples, *seed)
	} else {
		err = run(*w, *taskSpec, *thinkSpec, *ownerSpec, *samples, *warmup, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
}

// parseWorkday parses "name:duration:util,..." (name optional) into the
// scenario schedule form.
func parseWorkday(spec string) ([]feasim.PhaseSpec, error) {
	var phases []feasim.PhaseSpec
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		var ph feasim.PhaseSpec
		switch len(fields) {
		case 3:
			ph.Name = fields[0]
			fields = fields[1:]
		case 2:
		default:
			return nil, fmt.Errorf("bad workday phase %q: want name:duration:util", part)
		}
		var err error
		if ph.Duration, err = strconv.ParseFloat(fields[0], 64); err != nil {
			return nil, fmt.Errorf("bad workday phase %q: %v", part, err)
		}
		if ph.Util, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("bad workday phase %q: %v", part, err)
		}
		phases = append(phases, ph)
	}
	return phases, nil
}

// runWorkday phrases the non-stationary experiment as a timeline query and
// answers it with every capable backend — the CLI goes through the same
// Query API as `feasim query` and the HTTP service instead of driving the
// simulator directly.
func runWorkday(w int, taskSpec, ownerSpec, workdaySpec string, samples int, seed uint64) error {
	task, err := feasim.ParseDist(taskSpec)
	if err != nil {
		return err
	}
	owner, err := feasim.ParseDist(ownerSpec)
	if err != nil {
		return err
	}
	taskDet, dok := task.(feasim.Deterministic)
	ownerDet, ook := owner.(feasim.Deterministic)
	if !dok || !ook {
		return fmt.Errorf("-workday needs the paper's workload shape: deterministic -task and -owner (got %s, %s)", task, owner)
	}
	phases, err := parseWorkday(workdaySpec)
	if err != nil {
		return err
	}
	q := feasim.TimelineQuery{
		Scenario: feasim.Scenario{
			Name:     "workday",
			J:        taskDet.V * float64(w),
			W:        w,
			O:        ownerDet.V,
			Seed:     seed,
			Schedule: phases,
		},
		Samples: samples,
	}
	if err := q.Validate(); err != nil {
		return err
	}
	ctx := context.Background()
	for _, name := range feasim.Backends() {
		solver, err := feasim.NewSolver(name, feasim.SolverOptions{})
		if err != nil {
			return err
		}
		a, err := solver.Answer(ctx, q)
		if errors.Is(err, feasim.ErrUnsupported) {
			continue // backend without timeline support
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t := a.(feasim.TimelineAnswer)
		fmt.Printf("timeline [%s]: W=%d J=%g O=%g cycle=%g mean util %.4f\n",
			name, w, q.Scenario.J, q.Scenario.O, t.CycleLength, t.MeanUtil)
		for _, ep := range t.Epochs {
			line := fmt.Sprintf("  t=%-8.4g %-12s util=%-7.3g E[job]=%-10.3f weff=%.4f",
				ep.Start, ep.Phase, ep.Util, ep.EJob, ep.WeightedEfficiency)
			if ep.Samples > 0 {
				line += fmt.Sprintf("  (%d reps, CI [%.1f, %.1f])", ep.Samples, ep.EJobCI.Lo, ep.EJobCI.Hi)
			}
			fmt.Println(line)
		}
	}
	return nil
}

// run answers the stationary experiment as an explicit-station scenario
// through the DES backend of the Query API: every station runs the given
// owner think/burst distributions, and every task the given demand.
func run(w int, taskSpec, thinkSpec, ownerSpec string, samples, warmup int, seed uint64) error {
	task, err := feasim.ParseDist(taskSpec)
	if err != nil {
		return err
	}
	think, err := feasim.ParseDist(thinkSpec)
	if err != nil {
		return err
	}
	owner, err := feasim.ParseDist(ownerSpec)
	if err != nil {
		return err
	}
	s := feasim.Scenario{
		Name:       "clustersim",
		W:          w,
		Stations:   []feasim.StationSpec{{OwnerThink: thinkSpec, OwnerDemand: ownerSpec, Count: w}},
		TaskDemand: taskSpec,
		Seed:       seed,
	}
	pr := feasim.Protocol{
		Batches:    20,
		BatchSize:  samples / 20,
		Level:      0.90,
		MaxSamples: int64(4 * samples),
	}
	if pr.BatchSize < 1 {
		pr.BatchSize = 1
	}
	if warmup <= 0 {
		warmup = -1 // the DES backend reads 0 as its default warmup
	}
	ctx := context.Background()
	res, err := feasim.NewDESSolver(pr, warmup).Solve(ctx, s)
	if err != nil {
		return err
	}
	ci := func(mean float64, iv feasim.Interval) string {
		return fmt.Sprintf("%.6g ± %.3g (%.0f%%)", mean, iv.Width()/2, pr.Level*100)
	}

	fmt.Printf("general simulator: W=%d task=%s think=%s owner=%s\n", w, task, think, owner)
	fmt.Printf("  configured owner utilization %.4f\n", res.U)
	fmt.Printf("  samples %d\n", res.Samples)
	fmt.Printf("  E[job time]  %s\n", ci(res.EJob, res.EJobCI))
	fmt.Printf("  E[task time] %s\n", ci(res.ETask, res.ETaskCI))

	// When the workload is the paper's shape, show the analytic bound.
	taskDet, dok := task.(feasim.Deterministic)
	ownerDet, ook := owner.(feasim.Deterministic)
	if dok && ook && ownerDet.V > 0 {
		paper := feasim.Scenario{J: taskDet.V * float64(w), W: w, O: ownerDet.V, Util: res.U}
		if ana, err := feasim.NewAnalyticSolver().Solve(ctx, paper); err == nil {
			fmt.Printf("  analytic (optimistic) E_j = %.3f, E_t = %.3f\n", ana.EJob, ana.ETask)
			fmt.Printf("  simulated/analytic job-time ratio: %.4f\n", res.EJob/ana.EJob)
		}
	}
	return nil
}
