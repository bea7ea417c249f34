// Package sim reproduces the paper's simulation study (Section 2.2). Two
// engines are provided:
//
//   - Exact simulates the discrete-time model precisely as analyzed: owner
//     interruption opportunities occur after each unit of task progress with
//     probability P, each burst costs exactly O, and the task is guaranteed
//     one unit of progress between bursts. Its purpose — as in the paper —
//     is to validate the analysis: its estimates must fall within tight
//     confidence intervals of the analytic E_t and E_j.
//
//   - General drops the model's optimistic assumptions (the paper's three
//     "simplifying assumptions" in Section 2.1 and the future work of
//     Section 2.2): owner think times elapse in wall-clock time rather than
//     task progress (so the one-unit-progress guarantee disappears), owner
//     demands and task demands may follow any distribution, and stations may
//     be heterogeneous. It runs on the des engine with preemptive-priority
//     workstations; its owner processes, job driver and tasks are engine
//     callbacks, and a warm run allocates nothing per event.
//
// Output analysis follows the paper: batch means with 20 batches of 1000
// samples and 90% confidence intervals, targeting ≤1% relative half-width.
package sim

import (
	"fmt"

	"feasim/internal/core"
	"feasim/internal/rng"
)

// JobSample is one simulated execution of the parallel job.
type JobSample struct {
	JobTime     float64 // time until the last task completes
	MeanTask    float64 // mean task completion time over the W tasks
	MaxBursts   int     // owner bursts suffered by the slowest task
	TotalBursts int     // owner bursts over all tasks
}

// Exact is the discrete-time simulator of the analyzed model.
type Exact struct {
	p      core.Params
	trials int
	stream *rng.Stream
	think  rng.Geometric
}

// NewExact builds the exact simulator for the given model parameters.
func NewExact(p core.Params, seed uint64) (*Exact, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := p.TaskDemand()
	trials := int(t + 0.5)
	if float64(trials) != t {
		return nil, fmt.Errorf("sim: exact simulator requires integral task demand, got T=%v", t)
	}
	return &Exact{p: p, trials: trials, stream: rng.NewStream(seed), think: rng.Geometric{P: p.P}}, nil
}

// Params returns the simulated model parameters.
func (x *Exact) Params() core.Params { return x.p }

// taskBursts samples the number of owner bursts suffered by one task:
// Binomial(trials, P) drawn by geometric gap-jumping, which costs
// O(expected bursts) instead of O(T) per task.
func (x *Exact) taskBursts() int {
	if x.p.P <= 0 || x.p.O == 0 {
		return 0
	}
	n := 0
	pos := 0
	for {
		pos += int(x.think.Sample(x.stream))
		if pos > x.trials {
			return n
		}
		n++
	}
}

// Sample runs one job execution.
func (x *Exact) Sample() JobSample {
	t := x.p.TaskDemand()
	maxB, totB := 0, 0
	var sumTask float64
	for w := 0; w < x.p.W; w++ {
		b := x.taskBursts()
		totB += b
		if b > maxB {
			maxB = b
		}
		sumTask += t + float64(b)*x.p.O
	}
	return JobSample{
		JobTime:     t + float64(maxB)*x.p.O,
		MeanTask:    sumTask / float64(x.p.W),
		MaxBursts:   maxB,
		TotalBursts: totB,
	}
}

// SampleStepwise runs one job execution by walking every unit of task
// progress and flipping the owner coin at each, exactly as the model is
// described — an O(T·W) reference implementation used by tests to validate
// the gap-jumping sampler.
func (x *Exact) SampleStepwise() JobSample {
	t := x.p.TaskDemand()
	maxB, totB := 0, 0
	var sumTask float64
	for w := 0; w < x.p.W; w++ {
		b := 0
		for unit := 0; unit < x.trials; unit++ {
			if x.stream.Float64() < x.p.P {
				b++
			}
		}
		totB += b
		if b > maxB {
			maxB = b
		}
		sumTask += t + float64(b)*x.p.O
	}
	return JobSample{
		JobTime:     t + float64(maxB)*x.p.O,
		MeanTask:    sumTask / float64(x.p.W),
		MaxBursts:   maxB,
		TotalBursts: totB,
	}
}
