package experiment

import (
	"context"
	"fmt"

	"feasim/internal/cluster"
	"feasim/internal/core"
	"feasim/internal/plot"
	"feasim/internal/solve"
)

const paperO = 10.0 // owner burst demand used throughout the paper

// metricSelector picks one metric out of a model result.
type metricSelector struct {
	name string
	get  func(core.Result) float64
}

// fixedSizeFigure builds Figures 1-6: a metric versus number of
// workstations for the paper's four utilizations, with an optional
// "perfect" reference line.
func fixedSizeFigure(id, caption, yLabel string, j float64, sel metricSelector, perfect func(w int) float64) func(Config) (Output, error) {
	return func(cfg Config) (Output, error) {
		if err := cfg.Validate(); err != nil {
			return Output{}, err
		}
		ws := wSweep(cfg.WStep)
		fig := plot.Figure{
			ID:     id,
			Title:  caption,
			XLabel: "Number of Processors",
			YLabel: yLabel,
		}
		if perfect != nil {
			s := plot.Series{Name: "perfect"}
			for _, w := range ws {
				s.X = append(s.X, float64(w))
				s.Y = append(s.Y, perfect(w))
			}
			fig.Series = append(fig.Series, s)
		}
		for _, util := range paperUtils {
			s := plot.Series{Name: fmt.Sprintf("util = %g", util)}
			for _, w := range ws {
				p, err := core.ParamsFromUtilization(j, w, paperO, util)
				if err != nil {
					return Output{}, err
				}
				r, err := core.Analyze(p.Fleet())
				if err != nil {
					return Output{}, err
				}
				s.X = append(s.X, float64(w))
				s.Y = append(s.Y, sel.get(r))
			}
			fig.Series = append(fig.Series, s)
		}
		return Output{Figure: &fig}, nil
	}
}

func analyzeAt(j float64, w int, util float64) (core.Result, error) {
	p, err := core.ParamsFromUtilization(j, w, paperO, util)
	if err != nil {
		return core.Result{}, err
	}
	return core.Analyze(p.Fleet())
}

func figure01() Definition {
	run := fixedSizeFigure("fig01", "Speedup, J = 1000 units", "Speedup", 1000,
		metricSelector{"speedup", func(r core.Result) float64 { return r.Speedup }},
		func(w int) float64 { return float64(w) })
	return Definition{
		ID:       "fig01",
		Paper:    "Figure 1: Speedup, J = 1000 units",
		Workload: "J=1000, O=10, W=1..100, owner utilization in {1,5,10,20}%",
		Run: func(cfg Config) (Output, error) {
			out, err := run(cfg)
			if err != nil {
				return out, err
			}
			// "At 100 nodes the speedup for a system with only 1% utilization
			// is only 61% of the optimal speedup, for a 20% utilization the
			// speedup is only 32.5%."
			r1, err := analyzeAt(1000, 100, 0.01)
			if err != nil {
				return out, err
			}
			r20, err := analyzeAt(1000, 100, 0.2)
			if err != nil {
				return out, err
			}
			out.Checks = append(out.Checks,
				Check{Name: "% of optimal speedup at W=100, util 1%", Paper: 61.0, Got: r1.Speedup, AbsTol: 0.5},
				Check{Name: "% of optimal speedup at W=100, util 20%", Paper: 32.5, Got: r20.Speedup, AbsTol: 0.5},
			)
			return out, nil
		},
	}
}

func figure02() Definition {
	return Definition{
		ID:       "fig02",
		Paper:    "Figure 2: Efficiency, J = 1000 units",
		Workload: "J=1000, O=10, W=1..100, owner utilization in {1,5,10,20}%",
		Run: fixedSizeFigure("fig02", "Efficiency, J = 1000 units", "Efficiency", 1000,
			metricSelector{"efficiency", func(r core.Result) float64 { return r.Efficiency }}, nil),
	}
}

func figure03() Definition {
	return Definition{
		ID:       "fig03",
		Paper:    "Figure 3: Weighted Speedup, J = 1000 units",
		Workload: "J=1000, O=10, W=1..100, owner utilization in {1,5,10,20}%",
		Run: fixedSizeFigure("fig03", "Weighted Speedup, J = 1000 units", "Weighted Speedup", 1000,
			metricSelector{"wspeedup", func(r core.Result) float64 { return r.WeightedSpeedup }},
			func(w int) float64 { return float64(w) }),
	}
}

func figure04() Definition {
	run := fixedSizeFigure("fig04", "Weighted Efficiency, J = 1000 units", "Weighted Efficiency", 1000,
		metricSelector{"weff", func(r core.Result) float64 { return r.WeightedEfficiency }}, nil)
	return Definition{
		ID:       "fig04",
		Paper:    "Figure 4: Weighted Efficiency, J = 1000 units",
		Workload: "J=1000, O=10, W=1..100, owner utilization in {1,5,10,20}%",
		Run: func(cfg Config) (Output, error) {
			out, err := run(cfg)
			if err != nil {
				return out, err
			}
			// "the weighted-efficiency is still only 61.5% (41%) for a
			// utilization of 1% (20%)".
			r1, err := analyzeAt(1000, 100, 0.01)
			if err != nil {
				return out, err
			}
			r20, err := analyzeAt(1000, 100, 0.2)
			if err != nil {
				return out, err
			}
			out.Checks = append(out.Checks,
				Check{Name: "weighted efficiency at W=100, util 1%", Paper: 0.615, Got: r1.WeightedEfficiency, AbsTol: 0.01},
				Check{Name: "weighted efficiency at W=100, util 20%", Paper: 0.41, Got: r20.WeightedEfficiency, AbsTol: 0.01},
			)
			return out, nil
		},
	}
}

func figure05() Definition {
	return Definition{
		ID:       "fig05",
		Paper:    "Figure 5: Weighted Speedup, J = 10,000 units",
		Workload: "J=10000, O=10, W=1..100, owner utilization in {1,5,10,20}%",
		Run: fixedSizeFigure("fig05", "Weighted Speedup, J = 10,000 units", "Weighted Speedup", 10000,
			metricSelector{"wspeedup", func(r core.Result) float64 { return r.WeightedSpeedup }},
			func(w int) float64 { return float64(w) }),
	}
}

func figure06() Definition {
	run := fixedSizeFigure("fig06", "Weighted Efficiency, J = 10,000 units", "Weighted Efficiency", 10000,
		metricSelector{"weff", func(r core.Result) float64 { return r.WeightedEfficiency }}, nil)
	return Definition{
		ID:       "fig06",
		Paper:    "Figure 6: Weighted Efficiency, J = 10,000 units",
		Workload: "J=10000, O=10, W=1..100, owner utilization in {1,5,10,20}%",
		Run: func(cfg Config) (Output, error) {
			out, err := run(cfg)
			if err != nil {
				return out, err
			}
			// "The weighted-speedups and weighted-efficiencies for a job
			// demand of 10K units are much higher than their counterparts":
			// encode as W=100 comparison against Figure 4.
			big, err := analyzeAt(10000, 100, 0.1)
			if err != nil {
				return out, err
			}
			small, err := analyzeAt(1000, 100, 0.1)
			if err != nil {
				return out, err
			}
			out.Notes = fmt.Sprintf("J=10K dominates J=1K at every point; e.g. weff(W=100, util 10%%): %.3f vs %.3f",
				big.WeightedEfficiency, small.WeightedEfficiency)
			out.Checks = append(out.Checks, Check{
				Name:  "weff gain J=10K over J=1K at W=100, util 10% (positive)",
				Paper: 1, Got: boolTo01(big.WeightedEfficiency > small.WeightedEfficiency),
			})
			return out, nil
		},
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func taskRatioFigure(id, caption string, w int, utils []float64, seriesName func(util float64, w int) string) func(Config) (Output, error) {
	return func(cfg Config) (Output, error) {
		if err := cfg.Validate(); err != nil {
			return Output{}, err
		}
		fig := plot.Figure{
			ID:     id,
			Title:  caption,
			XLabel: "Task Ratio",
			YLabel: "Weighted Efficiency",
		}
		for _, util := range utils {
			s := plot.Series{Name: seriesName(util, w)}
			for ratio := 1; ratio <= 60; ratio++ {
				t := float64(ratio) * paperO
				p, err := core.ParamsFromUtilization(t*float64(w), w, paperO, util)
				if err != nil {
					return Output{}, err
				}
				r, err := core.Analyze(p.Fleet())
				if err != nil {
					return Output{}, err
				}
				s.X = append(s.X, float64(ratio))
				s.Y = append(s.Y, r.WeightedEfficiency)
			}
			fig.Series = append(fig.Series, s)
		}
		return Output{Figure: &fig}, nil
	}
}

func figure07() Definition {
	run := taskRatioFigure("fig07", "Effect of Task Ratio, 60 Workstations", 60, paperUtils,
		func(util float64, _ int) string { return fmt.Sprintf("util = %g", util) })
	return Definition{
		ID:       "fig07",
		Paper:    "Figure 7: Effect of Task Ratio, 60 Workstations",
		Workload: "W=60, O=10, task ratio 1..60 (T = ratio*O), owner utilization in {1,5,10,20}%",
		Run:      run,
	}
}

func figure08() Definition {
	systems := []int{2, 4, 8, 20, 60, 100}
	return Definition{
		ID:       "fig08",
		Paper:    "Figure 8: Effect of Task Ratio, Number Workstations Varied, Owner Utilization = 0.1",
		Workload: "util=10%, O=10, task ratio 1..60, W in {2,4,8,20,60,100}",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			fig := plot.Figure{
				ID:     "fig08",
				Title:  "Effect of Task Ratio, Number Workstations Varied, Owner Utilization = 0.1",
				XLabel: "Task Ratio",
				YLabel: "Weighted Efficiency",
			}
			for _, w := range systems {
				sub := taskRatioFigure("tmp", "", w, []float64{0.1},
					func(_ float64, w int) string { return fmt.Sprintf("numProc = %d", w) })
				out, err := sub(cfg)
				if err != nil {
					return Output{}, err
				}
				fig.Series = append(fig.Series, out.Figure.Series...)
			}
			// "Sensitivity to the task ratio increases with system size":
			// at ratio 10 the smallest system must beat the largest.
			small := fig.Series[0].Y[9]
			large := fig.Series[len(fig.Series)-1].Y[9]
			return Output{
				Figure: &fig,
				Checks: []Check{{
					Name:  "weff(ratio=10) higher on W=2 than W=100 (positive)",
					Paper: 1, Got: boolTo01(small > large),
				}},
			}, nil
		},
	}
}

func figure09() Definition {
	return Definition{
		ID:       "fig09",
		Paper:    "Figure 9: Effect of Scaling Problem",
		Workload: "memory-bounded scaleup: scaled queries (T=100 fixed, J=100*W, O=10, W=1..100) over a utilization axis {1,5,10,20}%",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			ws := wSweep(cfg.WStep)
			fig := plot.Figure{
				ID:     "fig09",
				Title:  "Effect of Scaling Problem",
				XLabel: "Number of Processors",
				YLabel: "Execution Time",
			}
			var checks []Check
			// The paper quotes increases of 14/30/44/71% at W=100. One
			// ScaledQuery per utilization, fanned over the query sweep.
			paperInc := map[float64]float64{0.01: 0.14, 0.05: 0.30, 0.1: 0.44, 0.2: 0.71}
			results, err := solve.CollectQueries(context.Background(), solve.QuerySweepSpec{
				Base: solve.ScaledQuery{T: 100, O: paperO, Ws: ws},
				Util: paperUtils,
				Seed: cfg.Seed,
			})
			if err != nil {
				return Output{}, err
			}
			for i, res := range results {
				util := paperUtils[i]
				if res.Err != nil {
					return Output{}, fmt.Errorf("experiment: scaled query at util %g: %w", util, res.Err)
				}
				pts := res.Answer.(solve.ScaledAnswer).Points
				s := plot.Series{Name: fmt.Sprintf("util = %g", util)}
				for _, pt := range pts {
					s.X = append(s.X, float64(pt.W))
					s.Y = append(s.Y, pt.EJob)
				}
				fig.Series = append(fig.Series, s)
				last := pts[len(pts)-1]
				checks = append(checks, Check{
					Name:  fmt.Sprintf("scaled response-time increase at W=100, util %g%%", util*100),
					Paper: paperInc[util], Got: last.IncreaseVsDedicated, AbsTol: 0.02,
				})
			}
			return Output{
				Figure: &fig,
				Checks: checks,
				Notes: "Increases measured against the dedicated baseline T=100; the paper's prose says " +
					"'one workstation with the same owner utilization' but its quoted 14/30/44/71% match the " +
					"dedicated baseline (see EXPERIMENTS.md).",
			}, nil
		},
	}
}

// elcUtil is the paper's measured owner utilization on the Sun ELCs.
const elcUtil = 0.03

// fig10Demands are the paper's problem sizes: service demand on one
// dedicated machine, in minutes.
var fig10Demands = []float64{1, 2, 4, 8, 16}

func figure10() Definition {
	return Definition{
		ID:    "fig10",
		Paper: "Figure 10: Experimental Validation: Response Time",
		Workload: "virtual Sun ELC cluster, util 3%, O=10s; fixed problem sizes of 1/2/4/8/16 dedicated " +
			"minutes; W=1..12; PVM local computation, mean max-task time over runs; plus analytic model at 3%",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			fig := plot.Figure{
				ID:     "fig10",
				Title:  "Experimental Validation: Response Time",
				XLabel: "Number of Processors",
				YLabel: "Maximum Task Execution Time (s)",
			}
			var checks []Check
			var seedOff uint64
			for _, minutes := range fig10Demands {
				demand := minutes * 60 // seconds of dedicated compute
				measured := plot.Series{Name: fmt.Sprintf("measured %g", minutes)}
				analytic := plot.Series{Name: fmt.Sprintf("analytic %g", minutes)}
				for w := 1; w <= 12; w++ {
					seedOff++
					params, err := cluster.SunELCParams(paperO, elcUtil)
					if err != nil {
						return Output{}, err
					}
					c, err := cluster.New(w, params, cfg.Seed+seedOff)
					if err != nil {
						return Output{}, err
					}
					res, err := cluster.Experiment{
						LocalComputation: cluster.LocalComputation{
							Cluster: c, Workers: w, TotalDemand: demand,
						},
						Runs: cfg.Runs,
					}.Run()
					if err != nil {
						return Output{}, err
					}
					measured.X = append(measured.X, float64(w))
					measured.Y = append(measured.Y, res.MaxTaskTime.Mean())

					p, err := core.ParamsFromUtilization(demand, w, paperO, elcUtil)
					if err != nil {
						return Output{}, err
					}
					r, err := core.Analyze(p.Fleet())
					if err != nil {
						return Output{}, err
					}
					analytic.X = append(analytic.X, float64(w))
					analytic.Y = append(analytic.Y, r.EJob)
				}
				fig.Series = append(fig.Series, measured, analytic)
				// "The models qualitative and quantitative predictions are in
				// close agreement with the measured results."
				last := len(measured.Y) - 1
				// The virtual cluster is the "real system": tasks can arrive
				// mid-burst (stationary owners), so measurements sit slightly
				// above the optimistic model — up to about one owner burst
				// (10s) on the slowest station. AbsTol covers that constant
				// offset, which is invisible at the paper's 0-1200s axis.
				checks = append(checks, Check{
					Name:   fmt.Sprintf("measured vs analytic max-task time, demand %gmin, W=12", minutes),
					Paper:  analytic.Y[last],
					Got:    measured.Y[last],
					AbsTol: 2.0,
					RelTol: 0.05,
				})
			}
			return Output{
				Figure: &fig,
				Checks: checks,
				Notes: "Measured curves sit at or slightly above the analytic ones (the model is an optimistic " +
					"bound; the virtual cluster includes mid-burst arrivals and wall-clock owner thinking), " +
					"matching the paper's 'close agreement' at plot scale.",
			}, nil
		},
	}
}

func figure11() Definition {
	return Definition{
		ID:    "fig11",
		Paper: "Figure 11: Experimental Validation: Speedups",
		Workload: "same measurements as Figure 10; speedup = max-task-time(1) / max-task-time(W); " +
			"perfect line for reference",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			fig := plot.Figure{
				ID:     "fig11",
				Title:  "Experimental Validation: Speedups",
				XLabel: "Number of Workstations",
				YLabel: "Speedup",
			}
			perfect := plot.Series{Name: "perfect"}
			for w := 1; w <= 12; w++ {
				perfect.X = append(perfect.X, float64(w))
				perfect.Y = append(perfect.Y, float64(w))
			}
			fig.Series = append(fig.Series, perfect)
			var seedOff uint64 = 1000
			type sp struct {
				minutes float64
				w12     float64
			}
			var speedups []sp
			for _, minutes := range fig10Demands {
				demand := minutes * 60
				s := plot.Series{Name: fmt.Sprintf("demand = %g", minutes)}
				var base float64
				for w := 1; w <= 12; w++ {
					seedOff++
					params, err := cluster.SunELCParams(paperO, elcUtil)
					if err != nil {
						return Output{}, err
					}
					c, err := cluster.New(w, params, cfg.Seed+seedOff)
					if err != nil {
						return Output{}, err
					}
					res, err := cluster.Experiment{
						LocalComputation: cluster.LocalComputation{
							Cluster: c, Workers: w, TotalDemand: demand,
						},
						Runs: cfg.Runs,
					}.Run()
					if err != nil {
						return Output{}, err
					}
					mt := res.MaxTaskTime.Mean()
					if w == 1 {
						base = mt
					}
					s.X = append(s.X, float64(w))
					s.Y = append(s.Y, base/mt)
				}
				fig.Series = append(fig.Series, s)
				speedups = append(speedups, sp{minutes, s.Y[len(s.Y)-1]})
			}
			// "the speedup for a job demand of 1 is lower than the speedup
			// for a job demand of 16" at the large system sizes.
			first, last := speedups[0], speedups[len(speedups)-1]
			return Output{
				Figure: &fig,
				Checks: []Check{{
					Name:  "speedup(16min) > speedup(1min) at W=12 (positive)",
					Paper: 1, Got: boolTo01(last.w12 > first.w12),
				}},
				Notes: fmt.Sprintf("W=12 speedups: demand 1min %.2f, demand 16min %.2f", first.w12, last.w12),
			}, nil
		},
	}
}
