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
	"math"

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
	// lnq is log1p(−P), the constant of the geometric gap's inversion.
	lnq float64
	// gapCDF[m] = P(gap ≤ m) = −expm1(m·lnq) for m ≤ min(trials,
	// gapCDFMax): a draw above gapCDF[m] (plus gapGuard) ends a task with m
	// trials left without taking a logarithm.
	gapCDF []float64
}

const (
	// gapCDFMax caps the gap cdf table at 2049 entries, ~16 KB whatever T is.
	gapCDFMax = 2048
	// gapGuard is the margin a draw must clear above gapCDF[m] to skip the
	// inversion; the comment on gap bounds the rounding it covers below 1e-15.
	gapGuard = 1e-9
)

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
	x := &Exact{p: p, trials: trials, stream: rng.NewStream(seed)}
	if p.P > 0 && p.P < 1 && p.O != 0 {
		x.lnq = math.Log1p(-p.P)
		x.gapCDF = make([]float64, min(trials, gapCDFMax)+1)
		for m := range x.gapCDF {
			x.gapCDF[m] = -math.Expm1(float64(m) * x.lnq)
		}
	}
	return x, nil
}

// Params returns the simulated model parameters.
func (x *Exact) Params() core.Params { return x.p }

// taskBursts samples the number of owner bursts suffered by one task:
// Binomial(trials, P) drawn by geometric gap-jumping, which costs
// O(expected bursts) instead of O(T) per task. It consumes one draw per
// burst plus one for the gap that runs past the task's end, and none when
// P is 0 or 1 or O is 0.
func (x *Exact) taskBursts() int {
	switch {
	case x.p.P <= 0 || x.p.O == 0:
		return 0
	case x.p.P >= 1:
		return x.trials
	}
	n := 0
	for left := x.trials; ; n++ {
		k, over := x.gap(x.stream.Float64(), left)
		if over {
			return n
		}
		left -= k
	}
}

// gap resolves one uniform draw u into the geometric gap to the next burst
// by inversion, k = max(1, ⌈log1p(−u)/lnq⌉), with left trials to go: over
// reports k > left (the task ends first), otherwise k is returned. k is
// compared with left in float64, so a gap past 2^63 ends the task instead
// of wrapping to a negative position.
//
// The table shortcut returns over without a logarithm when u > gapCDF[left]
// + gapGuard; the decision is the formula's. In exact arithmetic k > left
// exactly when u > c = 1 − (1−P)^left. The formula evaluates log1p(−u)/lnq
// with relative error below 3·2^−53 (log1p and lnq within an ulp each, a
// rounded division), which moves its boundary in u by at most
// (1−u)·left·|lnq|·3·2^−53 = x·e^−x·3·2^−53 ≤ 1.1e-16 (x = left·|lnq|,
// 1−u = e^−x at the boundary, x·e^−x ≤ 1/e). The table entry
// −expm1(left·lnq) is off by under 2e-16: 1.5 ulps of relative error in
// left·lnq move it by at most x·e^−x·1.5·2^−53, and expm1 adds an ulp. Both
// stay below 1e-15, far inside gapGuard, so a draw past the guard is past
// the formula's boundary too; every other draw takes the formula.
func (x *Exact) gap(u float64, left int) (k int, over bool) {
	if left < len(x.gapCDF) && u > x.gapCDF[left]+gapGuard {
		return 0, true
	}
	g := math.Ceil(math.Log1p(-u) / x.lnq)
	if g < 1 {
		g = 1
	}
	if g > float64(left) {
		return 0, true
	}
	return int(g), false
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
