package experiment

import (
	"fmt"

	"feasim/internal/core"
	"feasim/internal/plot"
	"feasim/internal/rng"
	"feasim/internal/sim"
	"feasim/internal/stats"
)

// Extension experiments — not figures from the paper, but the studies its
// Sections 2.2 and 5 call for. They appear in cmd/figures output alongside
// the paper artifacts, prefixed "ext".

// extension01 sweeps the owner-demand squared coefficient of variation,
// quantifying Section 2.1's optimism point 2 ("typical processes experience
// a much larger variance") with the general simulator.
func extension01() Definition {
	return Definition{
		ID:    "ext01",
		Paper: "Extension (paper §2.2 future work): owner service-demand variance sweep",
		Workload: "general simulator, W=12, T=100, O mean 10, util 10%; owner demand deterministic " +
			"(CV²=0), exponential (CV²=1), balanced hyperexponential CV² in {4,16,64}",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			samples := 100 * cfg.Runs
			type pt struct {
				cv2  float64
				dist rng.Dist
			}
			pts := []pt{
				{0, rng.Deterministic{V: 10}},
				{1, rng.Exponential{M: 10}},
				{4, rng.BalancedHyperExp(10, 4)},
				{16, rng.BalancedHyperExp(10, 16)},
				{64, rng.BalancedHyperExp(10, 64)},
			}
			s := plot.Series{Name: "simulated mean job time"}
			for i, q := range pts {
				base := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
				for k := range base.Stations {
					base.Stations[k].OwnerDemand = q.dist
				}
				base.Seed = cfg.Seed + uint64(i)
				base.WarmupJobs = 20
				g, err := sim.NewGeneral(base)
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
				s.X = append(s.X, q.cv2)
				s.Y = append(s.Y, sum.Mean())
			}
			// The paper's model (deterministic O) as the optimistic floor.
			p, err := core.ParamsFromUtilization(1200, 12, 10, 0.1)
			if err != nil {
				return Output{}, err
			}
			ana, err := core.Analyze(p.Fleet())
			if err != nil {
				return Output{}, err
			}
			floor := plot.Series{Name: "analytic bound (deterministic O)"}
			for _, x := range s.X {
				floor.X = append(floor.X, x)
				floor.Y = append(floor.Y, ana.EJob)
			}
			fig := plot.Figure{
				ID:     "ext01",
				Title:  "Owner demand variance vs job time (W=12, T=100, util 10%)",
				XLabel: "owner demand CV^2",
				YLabel: "mean job time",
				Series: []plot.Series{s, floor},
			}
			mono := true
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1] {
					mono = false
				}
			}
			return Output{
				Figure: &fig,
				Checks: []Check{
					{Name: "job time nondecreasing in owner CV² (positive)", Paper: 1, Got: boolTo01(mono)},
					{Name: "deterministic case above analytic floor", Paper: 1,
						Got: boolTo01(s.Y[0] >= ana.EJob*0.98)},
				},
				Notes: fmt.Sprintf("mean job time grows from %.1f (CV²=0) to %.1f (CV²=64); analytic floor %.1f",
					s.Y[0], s.Y[len(s.Y)-1], ana.EJob),
			}, nil
		},
	}
}

// extension02 sweeps the multiprogramming level: several parallel jobs
// sharing the same non-dedicated cluster (the paper analyzes exactly one).
func extension02() Definition {
	return Definition{
		ID:    "ext02",
		Paper: "Extension (paper §2 assumption relaxed): multiple concurrent parallel jobs",
		Workload: "closed multi-job simulator, W=8, T=100, O=10, util 10%, job think exp(50); " +
			"multiprogramming level K in {1,2,4,8}",
		Run: func(cfg Config) (Output, error) {
			if err := cfg.Validate(); err != nil {
				return Output{}, err
			}
			n := 25 * cfg.Runs
			base := sim.HomogeneousGeometric(8, 100, 10, 1.0/90)
			mj := sim.MultiJobConfig{
				Stations:     base.Stations,
				TaskDemand:   base.TaskDemand,
				JobThink:     rng.Exponential{M: 50},
				Seed:         cfg.Seed,
				WarmupPerJob: 5,
			}
			levels := []int{1, 2, 4, 8}
			pts, err := sim.MultiJobSweepLevels(mj, levels, n)
			if err != nil {
				return Output{}, err
			}
			resp := plot.Series{Name: "mean response time"}
			thr := plot.Series{Name: "throughput x1000"}
			for _, pt := range pts {
				resp.X = append(resp.X, float64(pt.Jobs))
				resp.Y = append(resp.Y, pt.MeanResponse)
				thr.X = append(thr.X, float64(pt.Jobs))
				thr.Y = append(thr.Y, pt.Throughput*1000)
			}
			fig := plot.Figure{
				ID:     "ext02",
				Title:  "Multi-job contention (W=8, T=100, util 10%)",
				XLabel: "concurrent parallel jobs K",
				YLabel: "time / scaled throughput",
				Series: []plot.Series{resp, thr},
			}
			// K=1 must agree with the single-job analysis within a few %.
			p, err := core.ParamsFromUtilization(800, 8, 10, 0.1)
			if err != nil {
				return Output{}, err
			}
			ana, err := core.Analyze(p.Fleet())
			if err != nil {
				return Output{}, err
			}
			mono := true
			for i := 1; i < len(resp.Y); i++ {
				if resp.Y[i] <= resp.Y[i-1] {
					mono = false
				}
			}
			return Output{
				Figure: &fig,
				Checks: []Check{
					{Name: "K=1 mean response vs analytic E_j", Paper: ana.EJob, Got: resp.Y[0], RelTol: 0.06},
					{Name: "response strictly grows with K (positive)", Paper: 1, Got: boolTo01(mono)},
				},
				Notes: fmt.Sprintf("response grows %.1f → %.1f from K=1 to K=8; throughput saturates at %.4f jobs/unit",
					resp.Y[0], resp.Y[len(resp.Y)-1], thr.Y[len(thr.Y)-1]/1000),
			}, nil
		},
	}
}
