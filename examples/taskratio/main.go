// Task-ratio advisor: the paper's headline engineering question, answered
// for a concrete shop. Given a cluster (size, owner behaviour measured à la
// uptime) and a candidate parallel application, report whether the job is
// big enough to steal cycles efficiently — and if not, how big it must be.
//
// The paper's rule of thumb (Section 5): at 5% owner utilization the task
// ratio must reach ~8 for 80% of the possible speedup; ~13 at 10%; ~20 at
// 20%. This example recomputes those thresholds for the actual environment
// instead of interpolating the paper's three points.
package main

import (
	"context"
	"fmt"
	"log"

	"feasim"
)

// candidate describes one parallel application a user is considering.
type candidate struct {
	name string
	j    float64 // total demand, in the same units as the owner burst O
}

func main() {
	const (
		workstations = 48
		ownerBurst   = 10.0 // mean owner burst demand (time units)
		target       = 0.80 // fraction of possible speedup we insist on
	)
	utils := []float64{0.02, 0.05, 0.10, 0.20}

	fmt.Printf("cluster: %d workstations, owner bursts of %g units, target %.0f%% weighted efficiency\n\n",
		workstations, ownerBurst, target*100)

	// Environment-specific threshold table (the paper's conclusions table,
	// recomputed for this cluster size): one threshold query per
	// utilization.
	solver := feasim.NewAnalyticSolver()
	fmt.Printf("%-14s %-16s %-18s\n", "owner util", "min task ratio", "min job demand J")
	for _, u := range utils {
		q := feasim.ThresholdQuery{W: workstations, O: ownerBurst, Util: u, TargetEff: target}
		a, err := solver.Answer(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		ratio := a.(feasim.ThresholdAnswer).MinRatio
		fmt.Printf("%-14s %-16d %-18.0f\n", fmt.Sprintf("%.0f%%", u*100), ratio,
			float64(ratio)*ownerBurst*workstations)
	}

	// Now judge three real candidates at the measured utilization.
	const measuredUtil = 0.05
	candidates := []candidate{
		{"nightly-regression", 2_000},
		{"parameter-sweep", 12_000},
		{"monte-carlo-pricing", 200_000},
	}
	fmt.Printf("\ncandidates at measured owner utilization %.0f%%:\n", measuredUtil*100)
	fmt.Printf("%-22s %-12s %-12s %-10s %s\n", "application", "task ratio", "weff", "verdict", "advice")
	for _, cand := range candidates {
		p, err := feasim.ParamsFromUtilization(cand.j, workstations, ownerBurst, measuredUtil)
		if err != nil {
			log.Fatal(err)
		}
		v, err := feasim.Assess(p.Fleet(), target)
		if err != nil {
			log.Fatal(err)
		}
		verdict, advice := "RUN", "-"
		if !v.Feasible {
			verdict = "DON'T"
			advice = fmt.Sprintf("batch work until J >= %.0f", v.MinJobDemand)
		}
		fmt.Printf("%-22s %-12.1f %-12.3f %-10s %s\n",
			cand.name, v.Result.Metrics.TaskRatio, v.WeightedEfficiency, verdict, advice)
	}

	// And show the flip side: the same infeasible job becomes feasible on a
	// smaller partition of the cluster (fewer workstations → larger tasks).
	small := candidates[0]
	fmt.Printf("\nright-sizing %q (J=%.0f):\n", small.name, small.j)
	fmt.Printf("%-14s %-12s %-10s\n", "workstations", "weff", "verdict")
	for _, w := range []int{48, 24, 12, 6, 3} {
		p, err := feasim.ParamsFromUtilization(small.j, w, ownerBurst, measuredUtil)
		if err != nil {
			log.Fatal(err)
		}
		r, err := feasim.Analyze(p.Fleet())
		if err != nil {
			log.Fatal(err)
		}
		verdict := "RUN"
		if r.WeightedEfficiency < target {
			verdict = "DON'T"
		}
		fmt.Printf("%-14d %-12.3f %-10s\n", w, r.WeightedEfficiency, verdict)
	}
}
