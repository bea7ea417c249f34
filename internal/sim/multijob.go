package sim

import (
	"fmt"

	"feasim/internal/des"
	"feasim/internal/rng"
	"feasim/internal/stats"
)

// Multi-job extension. The paper assumes "there is one parallel job being
// executed on the system at a time" (Section 2); this simulator relaxes
// that: K parallel jobs circulate in a closed loop (compute → think →
// resubmit), their tasks sharing each workstation's leftover cycles FIFO
// behind the owner. It answers the follow-on question the paper's model
// cannot: how quickly does response time degrade when cycle-stealers
// compete with each other as well as with owners?

// MultiJobConfig configures the closed multi-job simulation.
type MultiJobConfig struct {
	// Stations describes the workstations (owner workloads).
	Stations []StationConfig
	// TaskDemand is the per-task demand distribution; each job forks one
	// task per station.
	TaskDemand rng.Dist
	// Jobs is the multiprogramming level K (the paper's model is K=1).
	Jobs int
	// JobThink is the time between a job's completion and its
	// resubmission.
	JobThink rng.Dist
	// Seed drives all sampling; WarmupPerJob executions of each job are
	// discarded.
	Seed         uint64
	WarmupPerJob int
}

// Validate checks the configuration.
func (c MultiJobConfig) Validate() error {
	if len(c.Stations) == 0 {
		return fmt.Errorf("sim: multi-job config needs stations")
	}
	if c.TaskDemand == nil || c.JobThink == nil {
		return fmt.Errorf("sim: multi-job config needs task demand and job think distributions")
	}
	if c.Jobs < 1 {
		return fmt.Errorf("sim: multi-job config needs at least one job, got %d", c.Jobs)
	}
	for i, s := range c.Stations {
		if s.OwnerThink == nil || s.OwnerDemand == nil {
			return fmt.Errorf("sim: station %d missing owner distributions", i)
		}
	}
	return nil
}

// MultiJobStats is the simulation output.
type MultiJobStats struct {
	// Response summarizes per-execution job response times (fork to join).
	Response stats.Summary
	// PerJob holds each job's own response-time summary.
	PerJob []stats.Summary
	// Throughput is completed executions per unit of simulated time.
	Throughput float64
	// ObservedUtil is the measured owner busy fraction.
	ObservedUtil float64
	// TaskQueueDelay summarizes how long tasks waited behind other jobs'
	// tasks (time in system minus service minus owner interference is not
	// separable per task here; this measures time from task start until
	// first service).
	Completed int64
}

// RunMultiJob simulates until every job has completed n measured
// executions (after warmup) and returns aggregate statistics.
func RunMultiJob(cfg MultiJobConfig, n int) (MultiJobStats, error) {
	if err := cfg.Validate(); err != nil {
		return MultiJobStats{}, err
	}
	if n < 1 {
		return MultiJobStats{}, fmt.Errorf("sim: need at least one measured execution per job")
	}
	eng := des.NewEngine()
	root := rng.NewStream(cfg.Seed)
	servers := startOwners(eng, cfg.Stations, root)

	out := MultiJobStats{PerJob: make([]stats.Summary, cfg.Jobs)}
	remaining := cfg.Jobs // jobs that have not finished their quota
	var measureStart float64
	measuring := false

	// Each job cycles: fork its tasks (their demand unscaled by station
	// speed), join, record the response, think, resubmit — WarmupPerJob+n
	// executions, then it leaves the loop.
	for j := 0; j < cfg.Jobs; j++ {
		jstream := root.Split(uint64(1000 + j))
		exec := 0
		var f *forkJoin
		var submit func()
		submit = func() {
			if exec == cfg.WarmupPerJob+n {
				remaining--
				return
			}
			f.fork(cfg.TaskDemand, jstream)
		}
		f = newForkJoin(eng, servers, nil, func() {
			resp := eng.Now() - f.start
			if exec >= cfg.WarmupPerJob {
				if !measuring {
					measuring = true
					measureStart = f.start
				}
				out.Response.Add(resp)
				out.PerJob[j].Add(resp)
				out.Completed++
			}
			exec++
			eng.Schedule(eng.Now()+cfg.JobThink.Sample(jstream), submit)
		})
		eng.Schedule(eng.Now(), submit)
	}

	for remaining > 0 && eng.Step() {
	}
	if remaining > 0 {
		return MultiJobStats{}, fmt.Errorf("sim: engine drained with %d jobs unfinished", remaining)
	}

	horizon := eng.Now() - measureStart
	if horizon > 0 {
		out.Throughput = float64(out.Completed) / horizon
	}
	var busy float64
	for _, s := range servers {
		busy += s.BusyTime(PrioOwner)
	}
	if eng.Now() > 0 {
		out.ObservedUtil = busy / (eng.Now() * float64(len(servers)))
	}
	return out, nil
}

// MultiJobSweep runs the simulation at each multiprogramming level,
// reporting mean response time and throughput per level — the saturation
// curve of a shared non-dedicated cluster.
type MultiJobPoint struct {
	Jobs         int
	MeanResponse float64
	Throughput   float64
}

// Sweep runs RunMultiJob for each K in levels with n measured executions
// per job.
func MultiJobSweepLevels(base MultiJobConfig, levels []int, n int) ([]MultiJobPoint, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("sim: sweep needs at least one level")
	}
	out := make([]MultiJobPoint, 0, len(levels))
	for _, k := range levels {
		cfg := base
		cfg.Jobs = k
		st, err := RunMultiJob(cfg, n)
		if err != nil {
			return nil, err
		}
		out = append(out, MultiJobPoint{
			Jobs:         k,
			MeanResponse: st.Response.Mean(),
			Throughput:   st.Throughput,
		})
	}
	return out, nil
}
