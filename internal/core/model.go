package core

import (
	"fmt"
	"math"
)

// Params are the inputs of the paper's homogeneous model: W identical
// stations with one owner request probability P. They are the exact
// simulator's input; the analytic layer asks its questions of the
// equivalent one-group Fleet (Params.Fleet).
type Params struct {
	J float64 // total demand of the parallel job (time units)
	W int     // number of workstations (== number of tasks)
	O float64 // owner burst service demand (time units)
	P float64 // owner request probability per unit of task progress
}

// NewParams builds Params from the raw model inputs.
func NewParams(j float64, w int, o, p float64) Params {
	return Params{J: j, W: w, O: o, P: p}
}

// ParamsFromUtilization builds Params with P derived from a target owner
// utilization via the inversion of equation (8): P = U / (O·(1−U)).
// A zero utilization yields P = 0 (a dedicated system).
func ParamsFromUtilization(j float64, w int, o, util float64) (Params, error) {
	if util < 0 || util >= 1 {
		return Params{}, fmt.Errorf("core: owner utilization must be in [0,1), got %v", util)
	}
	p := Params{J: j, W: w, O: o}
	if util > 0 {
		if o <= 0 {
			return Params{}, fmt.Errorf("core: positive utilization requires O > 0")
		}
		p.P = util / (o * (1 - util))
	}
	return p, p.Validate()
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	switch {
	case !(p.J > 0) || math.IsInf(p.J, 0):
		return fmt.Errorf("core: job demand J must be positive and finite, got %v", p.J)
	case p.W < 1:
		return fmt.Errorf("core: workstation count W must be >= 1, got %d", p.W)
	case p.O < 0 || math.IsNaN(p.O) || math.IsInf(p.O, 0):
		return fmt.Errorf("core: owner demand O must be >= 0 and finite, got %v", p.O)
	case p.P < 0 || p.P > 1 || math.IsNaN(p.P):
		return fmt.Errorf("core: request probability P must be in [0,1], got %v", p.P)
	case p.P > 0 && p.J/float64(p.W) < 1:
		// The discrete-time model needs at least one unit of task progress
		// per task: with T < 1 the interruption-opportunity count rounds to
		// zero and the model degenerates (tasks would never be preempted).
		return fmt.Errorf("core: task demand J/W = %v is below one time unit; use fewer workstations or rescale the unit",
			p.J/float64(p.W))
	}
	return nil
}

// Fleet returns the one-group fleet this homogeneous model describes: W
// stations at the reference speed, each with request probability P.
func (p Params) Fleet() Fleet {
	return Fleet{J: p.J, O: p.O, Stations: []FleetStation{{P: p.P, Speed: 1, Count: p.W}}}
}

// TaskDemand is T = J/W.
func (p Params) TaskDemand() float64 { return p.J / float64(p.W) }

// Utilization is the owner utilization U = O / (O + 1/P) of equation (8).
func (p Params) Utilization() float64 {
	if p.P == 0 || p.O == 0 {
		return 0
	}
	return p.O / (p.O + 1/p.P)
}

// TaskRatio is the paper's new metric: parallel task demand over mean owner
// demand, T/O. It is infinite on a dedicated system (O = 0).
func (p Params) TaskRatio() float64 {
	if p.O == 0 {
		return math.Inf(1)
	}
	return p.TaskDemand() / p.O
}

// trials is the number of interruption opportunities for one task. T = J/W
// may be non-integral when W does not divide J; the binomial trial count is
// rounded while the deterministic T term stays real, keeping the figures'
// densely sampled curves smooth (see DESIGN.md §5 and AnalyzeInterpolated).
func (p Params) trials() int {
	return int(math.Round(p.TaskDemand()))
}

// Metrics are the paper's Section 3.1 performance measures.
type Metrics struct {
	TaskRatio          float64 // T / O
	Speedup            float64 // J / E_j
	WeightedSpeedup    float64 // J / ((1−U)·E_j)
	Efficiency         float64 // J / (W·E_j)
	WeightedEfficiency float64 // J / ((1−U)·W·E_j)
}

// Result is the full model output for one fleet.
type Result struct {
	Fleet
	W     int     // total station (= task) count
	T     float64 // reference task demand J/W
	U     float64 // station-weighted owner utilization, equation (8)
	ETask float64 // station-weighted expected task completion time, equation (3)
	EJob  float64 // expected job completion time, equation (7)
	// EMaxBursts is E[max over the W tasks of owner-burst counts] when every
	// station runs at one speed (the counts share one lattice); 0 otherwise.
	EMaxBursts    float64
	EBurstsPerTsk float64 // mean bursts per task (T·P on a homogeneous fleet)
	Metrics
}

// Analyze evaluates the model for fleet f. A fleet whose stations all share
// one request probability at the reference speed is the paper's homogeneous
// model: it takes the binomial order-statistic kernel, served by the shared
// (N, P)-memoized tables (tables.go), so sweeps that revisit the same task
// demand and request probability — a W-grid, a threshold bisection — build
// each binomial table once. Any other fleet takes the fleet kernel
// (fleet.go).
func Analyze(f Fleet) (Result, error) {
	if p, ok := f.homogeneous(); ok {
		if err := p.Validate(); err != nil {
			return Result{}, err
		}
		r := Result{Fleet: f}
		r.binomial(p, p.trials())
		return r, nil
	}
	if err := f.Validate(); err != nil {
		return Result{}, err
	}
	return analyzeFleet(f)
}

// MustAnalyze is Analyze for known-good parameters; it panics on error.
// The experiment definitions use it with validated sweeps.
func MustAnalyze(f Fleet) Result {
	r, err := Analyze(f)
	if err != nil {
		panic(err)
	}
	return r
}

func metricsFor(p Params, u, ejob float64) Metrics {
	m := Metrics{TaskRatio: p.TaskRatio()}
	if ejob > 0 {
		m.Speedup = p.J / ejob
		m.Efficiency = m.Speedup / float64(p.W)
		m.WeightedSpeedup = m.Speedup / (1 - u)
		m.WeightedEfficiency = m.Efficiency / (1 - u)
	}
	return m
}

// TaskTimeBound returns the model's worst case T + T·O (the guarantee the
// discrete model provides: at most one owner burst per unit of progress).
func TaskTimeBound(p Params) float64 {
	t := p.TaskDemand()
	return t + float64(p.trials())*p.O
}

// AnalyzeInterpolated is the ablation convention for non-integral T: it
// analyzes at floor(T) and ceil(T) trials and blends linearly. Figures use
// Analyze (rounded trials); BenchmarkAblationTrialsConvention compares the
// two conventions.
func AnalyzeInterpolated(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	t := p.TaskDemand()
	lo := math.Floor(t)
	hi := math.Ceil(t)
	rl := Result{Fleet: p.Fleet()}
	rl.binomial(p, int(lo))
	if lo == hi {
		return rl, nil
	}
	frac := t - lo
	var rh Result
	rh.binomial(p, int(hi))
	r := rl
	r.ETask = (1-frac)*rl.ETask + frac*rh.ETask
	r.EJob = (1-frac)*rl.EJob + frac*rh.EJob
	r.EMaxBursts = (1-frac)*rl.EMaxBursts + frac*rh.EMaxBursts
	r.EBurstsPerTsk = (1-frac)*rl.EBurstsPerTsk + frac*rh.EBurstsPerTsk
	r.Metrics = metricsFor(p, r.U, r.EJob)
	return r, nil
}

// binomial is the binomial kernel: it fills r with the homogeneous model p
// analyzed at n interruption opportunities per task.
func (r *Result) binomial(p Params, n int) {
	t := p.TaskDemand()
	u := p.Utilization()
	r.W, r.T, r.U = p.W, t, u
	mean := float64(n) * p.P
	r.EBurstsPerTsk = mean
	r.ETask = t + p.O*mean
	if p.O == 0 || p.P == 0 || n == 0 {
		r.EJob = t
	} else {
		tb := borrowTables(n, p.P)
		r.EMaxBursts = tb.ExpectedMax(p.W)
		tb.release()
		r.EJob = t + p.O*r.EMaxBursts
	}
	r.Metrics = metricsFor(p, u, r.EJob)
}
