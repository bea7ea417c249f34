package feasim_test

import (
	"context"
	"fmt"

	"feasim"
)

// ExampleAnalyze reproduces the paper's headline Figure 1 data point: a
// 1000-unit job on 100 workstations whose owners are just 1% busy still
// loses almost 40% of the perfect speedup.
func ExampleAnalyze() {
	p, _ := feasim.ParamsFromUtilization(1000, 100, 10, 0.01)
	r, _ := feasim.Analyze(p.Fleet())
	fmt.Printf("speedup %.1f of 100, weighted efficiency %.3f\n", r.Speedup, r.WeightedEfficiency)
	// Output: speedup 61.0 of 100, weighted efficiency 0.616
}

// ExampleThresholdQuery recomputes the paper's conclusions: the minimum
// task ratio for 80% of the possible speedup at each owner utilization.
func ExampleThresholdQuery() {
	solver := feasim.NewAnalyticSolver()
	for _, util := range []float64{0.05, 0.1, 0.2} {
		q := feasim.ThresholdQuery{W: 60, O: 10, Util: util, TargetEff: 0.8}
		a, _ := solver.Answer(context.Background(), q)
		fmt.Printf("util %.0f%% -> task ratio %d\n", util*100, a.(feasim.ThresholdAnswer).MinRatio)
	}
	// Output:
	// util 5% -> task ratio 8
	// util 10% -> task ratio 12
	// util 20% -> task ratio 18
}

// ExampleAssess answers the practical question directly: is this job big
// enough for this cluster, and if not, how big must it become?
func ExampleAssess() {
	p, _ := feasim.ParamsFromUtilization(600, 60, 10, 0.2)
	v, _ := feasim.Assess(p.Fleet(), 0.8)
	fmt.Printf("feasible: %v; grow J to at least %.0f\n", v.Feasible, v.MinJobDemand)
	// Output: feasible: false; grow J to at least 10800
}

// ExampleScaledQuery shows the paper's scaled-problem result: 100x the work
// on 100 workstations costs only 30% extra time at 5% owner utilization.
func ExampleScaledQuery() {
	q := feasim.ScaledQuery{T: 100, O: 10, Util: 0.05, Ws: []int{1, 100}}
	a, _ := feasim.NewAnalyticSolver().Answer(context.Background(), q)
	pts := a.(feasim.ScaledAnswer).Points
	fmt.Printf("response-time increase at W=100: +%.0f%%\n", pts[1].IncreaseVsDedicated*100)
	// Output: response-time increase at W=100: +30%
}

// ExampleDeadlineProb uses the exact job-time distribution for admission
// control: will the job make its window?
func ExampleDeadlineProb() {
	p, _ := feasim.ParamsFromUtilization(1000, 10, 10, 0.1)
	certain, _ := feasim.DeadlineProb(p.Fleet(), 200)
	hopeless, _ := feasim.DeadlineProb(p.Fleet(), 100)
	fmt.Printf("deadline 200: %.2f, deadline 100: %.2f\n", certain, hopeless)
	// Output: deadline 200: 1.00, deadline 100: 0.00
}
