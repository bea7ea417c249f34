package cluster

import (
	"fmt"
	"math"

	"feasim/internal/stats"
)

// Local computation experiment (paper Section 4): a perfectly parallel
// program with no interprocess communication. The paper ran it under PVM:
// the master forked W tasks, one per workstation, each task computed
// independently at low priority, recorded its own computation time and
// returned it to the master, which reported the maximum. No measured
// quantity depends on the message layer, so the run here is a direct loop
// over the stations.

// LocalComputation configures one experiment run.
type LocalComputation struct {
	// Cluster supplies the non-dedicated workstations. Workers are placed
	// one per station: worker i runs on station i.
	Cluster *Cluster
	// Workers is W; it must not exceed the cluster size.
	Workers int
	// TotalDemand is J in virtual seconds; each worker computes J/W.
	TotalDemand float64
}

// RunResult is one execution of the parallel program.
type RunResult struct {
	W             int
	DemandPerTask float64
	// MaxTaskTime is the paper's primary metric: the largest per-task
	// computation interval.
	MaxTaskTime float64
	// MeanTaskTime averages the W task intervals.
	MeanTaskTime float64
	// TotalOwnerTime sums the interference absorbed by all tasks.
	TotalOwnerTime float64
	// Records holds the per-task details in station order.
	Records []TaskRecord
}

// Validate checks the experiment configuration.
func (lc LocalComputation) Validate() error {
	if lc.Cluster == nil {
		return fmt.Errorf("cluster: experiment needs a cluster")
	}
	if lc.Workers < 1 || lc.Workers > lc.Cluster.Size() {
		return fmt.Errorf("cluster: workers must be in [1, %d], got %d", lc.Cluster.Size(), lc.Workers)
	}
	if !(lc.TotalDemand > 0) || math.IsInf(lc.TotalDemand, 1) {
		return fmt.Errorf("cluster: total demand must be positive and finite, got %v", lc.TotalDemand)
	}
	return nil
}

// Run executes the parallel program once: station i runs the niced task of
// J/W demand while its owner preempts it, and the run reports the maximum
// task time.
func (lc LocalComputation) Run() (RunResult, error) {
	if err := lc.Validate(); err != nil {
		return RunResult{}, err
	}
	res := RunResult{W: lc.Workers, DemandPerTask: lc.TotalDemand / float64(lc.Workers)}
	res.Records = make([]TaskRecord, lc.Workers)
	var sum stats.Summary
	for i := range res.Records {
		rec := lc.Cluster.stations[i].RunTask(res.DemandPerTask)
		res.Records[i] = rec
		sum.Add(rec.Elapsed)
		res.TotalOwnerTime += rec.OwnerTime
	}
	res.MaxTaskTime = sum.Max()
	res.MeanTaskTime = sum.Mean()
	return res, nil
}

// Experiment repeats the run the paper's 10 times (configurable) and
// averages, exactly as Section 4 does: "we ran the parallel program 10
// times for each parameter value and calculated the mean of these 10 runs
// as our metric".
type Experiment struct {
	LocalComputation
	Runs int
}

// ExperimentResult aggregates repeated runs.
type ExperimentResult struct {
	W             int
	DemandPerTask float64
	MaxTaskTime   stats.Summary // across runs
	MeanTaskTime  stats.Summary
}

// Run executes the repeated experiment.
func (e Experiment) Run() (ExperimentResult, error) {
	if e.Runs < 1 {
		return ExperimentResult{}, fmt.Errorf("cluster: experiment needs at least one run")
	}
	out := ExperimentResult{W: e.Workers, DemandPerTask: e.TotalDemand / float64(e.Workers)}
	for i := 0; i < e.Runs; i++ {
		r, err := e.LocalComputation.Run()
		if err != nil {
			return ExperimentResult{}, err
		}
		out.MaxTaskTime.Add(r.MaxTaskTime)
		out.MeanTaskTime.Add(r.MeanTaskTime)
	}
	return out, nil
}
