package experiment

import (
	"fmt"

	"feasim/internal/plot"
	"feasim/internal/rng"
	"feasim/internal/sim"
	"feasim/internal/stats"
)

// extension03 studies heterogeneity: the paper assumes every workstation
// has the same owner utilization; here the same *mean* utilization is
// spread unevenly across stations. Because the job waits for its slowest
// task, concentrating owner activity on a few stations is strictly worse
// than spreading it — a placement lesson for real clusters.
func extension03() Definition {
	return Definition{
		ID:    "ext03",
		Paper: "Extension (paper homogeneity assumption relaxed): utilization spread at fixed mean",
		Workload: "general simulator, W=12, T=100, O=10, mean owner utilization 10%; spread " +
			"configurations: homogeneous, half 5%/half 15%, half 2%/half 18%, two hogs at 50% + ten at 2%",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			samples := 100 * cfg.Runs
			// Each configuration lists per-station utilizations with mean 0.10.
			configs := []struct {
				name   string
				spread float64 // population SD of the utilizations, the x-axis
				utils  []float64
			}{
				{"homogeneous", 0, repeatU(0.10, 12)},
				{"±5%", 0.05, append(repeatU(0.05, 6), repeatU(0.15, 6)...)},
				{"±8%", 0.08, append(repeatU(0.02, 6), repeatU(0.18, 6)...)},
				{"two hogs", 0.1823, append(repeatU(0.50, 2), repeatU(0.02, 10)...)},
			}
			s := plot.Series{Name: "mean job time"}
			var notes string
			for i, c := range configs {
				gcfg := sim.GeneralConfig{
					TaskDemand: sim.HomogeneousGeometric(1, 100, 10, 0.01).TaskDemand,
					Seed:       cfg.Seed + uint64(100+i),
					WarmupJobs: 20,
				}
				var mean float64
				for _, u := range c.utils {
					mean += u / float64(len(c.utils))
					p := u / (10 * (1 - u)) // invert equation (8) with O=10
					gcfg.Stations = append(gcfg.Stations, sim.StationConfig{
						OwnerThink:  rng.NewGeometric(p),
						OwnerDemand: rng.Deterministic{V: 10},
					})
				}
				if df := mean - 0.10; df > 1e-9 || df < -1e-9 {
					return Output{}, fmt.Errorf("ext03: config %q mean utilization %v != 0.10", c.name, mean)
				}
				g, err := sim.NewGeneral(gcfg)
				if err != nil {
					return Output{}, err
				}
				st, err := g.Run(samples)
				if err != nil {
					return Output{}, err
				}
				var sum stats.Summary
				for _, x := range st.Samples {
					sum.Add(x.JobTime)
				}
				s.X = append(s.X, c.spread)
				s.Y = append(s.Y, sum.Mean())
				notes += fmt.Sprintf("%s: %.1f; ", c.name, sum.Mean())
			}
			fig := plot.Figure{
				ID:     "ext03",
				Title:  "Utilization spread vs job time (W=12, T=100, mean util 10%)",
				XLabel: "per-station utilization spread (SD)",
				YLabel: "mean job time",
				Series: []plot.Series{s},
			}
			mono := true
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1] {
					mono = false
				}
			}
			return Output{
				Figure: &fig,
				Checks: []Check{{
					Name:  "job time nondecreasing in utilization spread (positive)",
					Paper: 1, Got: boolTo01(mono),
				}},
				Notes: "mean job time by configuration: " + notes +
					"the busiest station dominates E[max], so spreading owner load helps",
			}, nil
		},
	}
}

func repeatU(u float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = u
	}
	return out
}
