// Deadline planning: the model gives the full distribution of job
// completion time, not just its mean, so a batch scheduler can answer
// "what is the probability this job finishes before the owners arrive at
// 9am?" and right-size the allocation accordingly.
//
// Scenario: a nightly job of 14,400 units (4 dedicated hours at one unit
// per second) must finish within a 35-minute maintenance window on a pool
// of 16 workstations whose owners average 10% remnant utilization. How many
// workstations should it use, and how confident are we?
package main

import (
	"context"
	"fmt"
	"log"

	"feasim"
)

func main() {
	const (
		jobDemand  = 14400.0 // total compute (unit = 1 second)
		ownerBurst = 10.0
		ownerUtil  = 0.10
		window     = 2100.0 // the maintenance window in seconds (35 min)
		maxW       = 16     // machines available in the overnight pool
	)

	fmt.Printf("job: %.0f s of dedicated compute; window: %.0f s; owners: %.0f%% in %gs bursts\n\n",
		jobDemand, window, ownerUtil*100, ownerBurst)

	// Sweep candidate allocations with the declarative API: one Scenario
	// per W, each carrying the deadline, answered by the analytic solver.
	// The quantile columns still come from the exact completion-time
	// distribution.
	ctx := context.Background()
	solver := feasim.NewAnalyticSolver()
	fmt.Printf("%-6s %-12s %-12s %-12s %-12s %-14s\n",
		"W", "E[job] (s)", "p50 (s)", "p95 (s)", "p99.9 (s)", "P(make window)")
	for _, w := range []int{4, 8, 10, 12, 16} {
		s := feasim.Scenario{
			Name: "overnight", J: jobDemand, W: w, O: ownerBurst, Util: ownerUtil,
			Deadline: window,
		}
		rep, err := solver.Solve(ctx, s)
		if err != nil {
			log.Fatal(err)
		}
		p, err := feasim.ParamsFromUtilization(jobDemand, w, ownerBurst, ownerUtil)
		if err != nil {
			log.Fatal(err)
		}
		d, err := feasim.JobTimeDistribution(p.Fleet())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-12.0f %-12.0f %-12.0f %-12.0f %-14.6f\n",
			w, rep.EJob, d.Quantile(0.5), d.Quantile(0.95), d.Quantile(0.999), *rep.DeadlineProb)
	}

	// The efficiency-aware choice: the largest W still meeting 85% weighted
	// efficiency (don't waste the pool just to shave minutes).
	a, err := solver.Answer(ctx, feasim.PartitionQuery{
		J: jobDemand, O: ownerBurst, Util: ownerUtil, TargetEff: 0.85, MaxW: maxW,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan := a.(feasim.PartitionAnswer)
	chosen := feasim.Scenario{
		Name: "overnight", J: jobDemand, W: plan.W, O: ownerBurst, Util: ownerUtil,
		Deadline: window,
	}
	rep, err := solver.Solve(ctx, chosen)
	if err != nil {
		log.Fatal(err)
	}
	prob := *rep.DeadlineProb
	fmt.Printf("\nrecommended allocation: W=%d (weighted efficiency %.3f, task ratio %.0f)\n",
		plan.W, plan.Report.WeightedEfficiency, plan.Report.TaskRatio)
	fmt.Printf("deadline confidence at W=%d: %.6f\n", plan.W, prob)

	// Cross-check the distribution against simulation at the chosen W: the
	// exact simulator's empirical deadline coverage over 20000 nights.
	const runs = 20000
	chosen.Seed = 7
	sim := feasim.NewExactSimSolver(feasim.Protocol{Batches: 20, BatchSize: runs / 20, Level: 0.90})
	a, err = sim.Answer(ctx, feasim.DistributionQuery{Scenario: chosen, Deadlines: []float64{window}})
	if err != nil {
		log.Fatal(err)
	}
	dist := a.(feasim.DistributionAnswer)
	fmt.Printf("simulated miss rate over %d nights: %.6f (model: %.6f)\n",
		dist.Samples, 1-dist.Deadlines[0].Prob, 1-prob)
}
