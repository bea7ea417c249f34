// Package feasim is a library for studying the feasibility of distributed
// computing on non-dedicated workstation clusters, reproducing Leutenegger
// & Sun, "Distributed Computing Feasibility in a Non-Dedicated Homogeneous
// Distributed System" (ICASE 93-65 / NASA CR-191532, Supercomputing '93).
//
// The question the library answers: given W workstations whose owners
// reclaim their machines with preemptive priority, how large must a
// parallel job be before stealing the idle cycles pays off? The paper's
// answer — and this library's central metric — is the task ratio: the
// per-task demand divided by the mean owner burst demand.
//
// # Typed Query/Answer API
//
// The recommended entry point is declarative: describe the question once as
// a typed Query (serialized through the JSON envelope {"kind": ...}), then
// ask any capable backend to answer it — NewAnalyticSolver (the paper's
// equations), NewExactSimSolver (the discrete-time validation simulator),
// or NewDESSolver (the discrete-event engine that drops the model's
// simplifying assumptions). The kinds cover the paper's whole question
// family: "report" (the Section 3 metrics), "threshold" (the
// conclusions-table minimum task ratio), "partition" (cluster
// right-sizing), "distribution" (deadline quantiles), "scaled"
// (memory-bounded scaleup). Solver.Capabilities lists what a backend
// answers; Solve remains the ReportQuery shorthand. RunQuerySweep fans a
// grid across a context-cancellable worker pool with deterministic
// per-point seeding.
//
//	s := feasim.Scenario{J: 12000, W: 60, O: 10, Util: 0.05, TargetEff: 0.8}
//	rep, _ := feasim.NewAnalyticSolver().Solve(ctx, s)
//	fmt.Printf("task ratio %.0f → weighted efficiency %.2f\n",
//	    rep.TaskRatio, rep.WeightedEfficiency)
//
//	a, _ := feasim.NewDESSolver(feasim.DefaultProtocol(), 10).Answer(ctx,
//	    feasim.ThresholdQuery{W: 60, O: 10, Util: 0.1, TargetEff: 0.8})
//	fmt.Printf("empirical min task ratio %d\n", a.(feasim.ThresholdAnswer).MinRatio)
//
// # Layers
//
//   - Query/Answer/Solver/Sweep (Query, Scenario, Solver, Report,
//     RunQuerySweep): the declarative facade over every layer below, and
//     the way to ask every question the paper poses — thresholds, scaled
//     curves, partitions and simulation cross-checks included.
//   - The analytical model (Analyze, Assess, JobTimeDistribution,
//     DeadlineProb): exact discrete-time results from the paper's
//     equations (1)-(8), asked of one Fleet type. The paper's homogeneous
//     system is the one-group fleet Params.Fleet(), answered by the
//     binomial kernel; per-station availability and speed generalize it.
//   - Simulation (RunMultiJob, MultiJobSweep): closed multi-job contention
//     on the discrete-event engine, the one simulation study beyond the
//     exact and DES Solver backends.
//   - Virtual cluster (NewCluster, LocalComputation, ClusterExperiment):
//     the paper's Section 4 experiment — a perfectly parallel program run
//     as a direct loop over virtual non-dedicated Sun ELC workstations,
//     reporting the maximum per-task computation interval.
//   - Experiments (Experiments, RunAllExperiments): regenerate every figure and
//     table in the paper.
//
// All types are aliases of the implementation packages under internal/, so
// the godoc for methods lives with the types shown here.
package feasim

import (
	"feasim/internal/cluster"
	"feasim/internal/core"
	"feasim/internal/experiment"
	"feasim/internal/plot"
	"feasim/internal/rng"
	"feasim/internal/sim"
	"feasim/internal/stats"
	"feasim/internal/timeline"
)

// ---- Analytical model (the paper's primary contribution) ----

// Params are the homogeneous model inputs: J (total job demand), W
// (workstations), O (owner burst demand), P (owner request probability per
// unit of task progress). Params.Fleet() is the one-group Fleet the
// analytical model is asked of.
type Params = core.Params

// FleetStation is one group of identical stations in a fleet: Count
// stations with owner request probability P, executing task work at Speed
// times the reference rate (0 means 1).
type FleetStation = core.FleetStation

// Fleet is the feasibility question: job demand J split one task per
// station, shared owner burst demand O, per-group availability and speed.
type Fleet = core.Fleet

// Result is the full model output: E_t, E_j and all Section 3 metrics.
type Result = core.Result

// Metrics are task ratio, speedup, efficiency and their weighted variants.
type Metrics = core.Metrics

// Binomial is the owner-interruption count distribution Bin(T, P).
type Binomial = core.Binomial

// FeasibilityVerdict is the output of Assess.
type FeasibilityVerdict = core.FeasibilityVerdict

// NewParams builds Params from the raw inputs.
func NewParams(j float64, w int, o, p float64) Params { return core.NewParams(j, w, o, p) }

// ParamsFromUtilization derives P from a target owner utilization.
func ParamsFromUtilization(j float64, w int, o, util float64) (Params, error) {
	return core.ParamsFromUtilization(j, w, o, util)
}

// Analyze evaluates the model; a one-group fleet at reference speed takes
// the paper's binomial kernel.
func Analyze(f Fleet) (Result, error) { return core.Analyze(f) }

// Assess combines Analyze with the threshold search into a verdict.
func Assess(f Fleet, targetWeightedEff float64) (FeasibilityVerdict, error) {
	return core.Assess(f, targetWeightedEff)
}

// TimeDistribution is a discrete completion-time distribution with
// quantiles and tail probabilities.
type TimeDistribution = core.TimeDistribution

// JobTimeDistribution returns the exact distribution of the job completion
// time (mean = E_j), enabling quantiles and deadline probabilities.
func JobTimeDistribution(f Fleet) (TimeDistribution, error) { return core.JobTimeDistribution(f) }

// TaskTimeDistribution returns the exact distribution of one task's
// completion time (mean = E_t) in the homogeneous model.
func TaskTimeDistribution(p Params) (TimeDistribution, error) { return core.TaskTimeDistribution(p) }

// DeadlineProb returns P(job completes within deadline).
func DeadlineProb(f Fleet, deadline float64) (float64, error) { return core.DeadlineProb(f, deadline) }

// AnalyzeGumbel is the O(1) extreme-value approximation of Analyze for very
// large task demands.
func AnalyzeGumbel(p Params) (Result, error) { return core.AnalyzeGumbel(p) }

// TileFleet expands a station template cyclically to exactly w stations.
func TileFleet(template []FleetStation, w int) ([]FleetStation, error) {
	return core.TileFleet(template, w)
}

// ---- Simulation (Section 2.2 and its future-work extensions) ----

// GeneralConfig is a discrete-event workload: per-station owner processes
// and a task demand distribution. Its stations seed a MultiJobConfig.
type GeneralConfig = sim.GeneralConfig

// StationWorkload describes one workstation's owner workload in a
// discrete-event simulation.
type StationWorkload = sim.StationConfig

// Protocol is the batch-means output-analysis protocol the simulation
// Solver backends run under.
type Protocol = sim.Protocol

// HomogeneousGeometric builds the paper's workload as a discrete-event
// configuration.
func HomogeneousGeometric(w int, t, o, p float64) GeneralConfig {
	return sim.HomogeneousGeometric(w, t, o, p)
}

// DefaultProtocol is the paper's protocol: 20 batches of 1000 samples, 90%
// confidence, 1% target half-width.
func DefaultProtocol() Protocol { return sim.DefaultProtocol() }

// MultiJobConfig configures the closed multi-job contention simulator (the
// paper assumes one job at a time; this relaxes that).
type MultiJobConfig = sim.MultiJobConfig

// MultiJobStats is the multi-job simulation output.
type MultiJobStats = sim.MultiJobStats

// MultiJobPoint is one multiprogramming level of a sweep.
type MultiJobPoint = sim.MultiJobPoint

// RunMultiJob simulates n measured executions of each of cfg.Jobs
// concurrent parallel jobs.
func RunMultiJob(cfg MultiJobConfig, n int) (MultiJobStats, error) { return sim.RunMultiJob(cfg, n) }

// MultiJobSweep runs the multi-job simulation at each multiprogramming
// level.
func MultiJobSweep(base MultiJobConfig, levels []int, n int) ([]MultiJobPoint, error) {
	return sim.MultiJobSweepLevels(base, levels, n)
}

// ---- Distributions ----

// Dist is a random-variate distribution with known moments.
type Dist = rng.Dist

// Stream is a seedable, splittable random stream.
type Stream = rng.Stream

// Distribution constructors (see package rng for the full set).
type (
	// Deterministic is a point mass.
	Deterministic = rng.Deterministic
	// Exponential has CV 1.
	Exponential = rng.Exponential
	// Erlang has CV 1/sqrt(K).
	Erlang = rng.Erlang
	// HyperExp has CV > 1 — the "much larger variance" owner demands of the
	// paper's reference [7].
	HyperExp = rng.HyperExp
	// Pareto is heavy-tailed — the long-running owner jobs of Section 5.
	Pareto = rng.Pareto
	// Geometric is the paper's owner think time.
	Geometric = rng.Geometric
	// Uniform is continuous uniform.
	Uniform = rng.Uniform
)

// NewStream creates a reproducible random stream.
func NewStream(seed uint64) *Stream { return rng.NewStream(seed) }

// ParseDist builds a distribution from a spec string such as "exp:10" or
// "hyper:0.1,55,5".
func ParseDist(spec string) (Dist, error) { return rng.Parse(spec) }

// BalancedHyperExp builds a hyperexponential with a given mean and squared
// coefficient of variation.
func BalancedHyperExp(mean, cv2 float64) HyperExp { return rng.BalancedHyperExp(mean, cv2) }

// ---- Virtual non-dedicated cluster experiment (Section 4) ----

// Cluster is a set of virtual non-dedicated workstations.
type Cluster = cluster.Cluster

// StationParams configures one workstation's owner workload.
type StationParams = cluster.StationParams

// Station is one virtual workstation.
type Station = cluster.Station

// TaskRecord is one task execution's timing record.
type TaskRecord = cluster.TaskRecord

// LocalComputation is the paper's perfectly parallel experiment program.
type LocalComputation = cluster.LocalComputation

// ClusterExperiment repeats the local computation the paper's 10 times.
type ClusterExperiment = cluster.Experiment

// NewCluster builds a homogeneous virtual cluster.
func NewCluster(n int, params StationParams, seed uint64) (*Cluster, error) {
	return cluster.New(n, params, seed)
}

// NewHeterogeneousCluster builds a cluster with per-station workloads.
func NewHeterogeneousCluster(params []StationParams, seed uint64) (*Cluster, error) {
	return cluster.NewHeterogeneous(params, seed)
}

// SunELCParams reproduces the paper's measured 3%-utilization Sun ELC
// environment (pass any utilization in [0,1)).
func SunELCParams(o, util float64) (StationParams, error) { return cluster.SunELCParams(o, util) }

// OwnerSchedule is a piecewise-constant owner-utilization timeline (e.g. a
// busy day and a quiet night) for nonstationary-owner studies: a repeating
// schedule, or a recorded trace that holds its last level.
type OwnerSchedule = timeline.Profile

// PhasedStation is a workstation whose owner follows an OwnerSchedule.
type PhasedStation = timeline.PhasedStation

// Workday builds the canonical two-phase schedule: a busy day and a quiet
// night with the given owner utilizations.
func Workday(dayUtil, nightUtil, dayLen, nightLen float64) (OwnerSchedule, error) {
	s := OwnerSchedule{Cyclic: true, Segments: []timeline.Segment{
		{Name: "day", Duration: dayLen, Util: dayUtil},
		{Name: "night", Duration: nightLen, Util: nightUtil},
	}}
	return s, s.Validate()
}

// NewPhasedStation builds a workstation with a nonstationary owner whose
// bursts have demand o (the paper's Sun-ELC workload at each phase's
// utilization).
func NewPhasedStation(name string, schedule OwnerSchedule, o float64, stream *Stream) (*PhasedStation, error) {
	return timeline.NewPhasedStation(name, schedule, o, stream)
}

// ---- Statistics ----

// Summary is a single-pass mean/variance/min/max accumulator.
type Summary = stats.Summary

// CI is a confidence interval.
type CI = stats.CI

// BatchMeans is the paper's output-analysis method.
type BatchMeans = stats.BatchMeans

// NewBatchMeans creates a batch-means collector.
func NewBatchMeans(batchSize int) *BatchMeans { return stats.NewBatchMeans(batchSize) }

// ---- Experiments: regenerate the paper's figures and tables ----

// Experiment is one reproducible paper artifact.
type Experiment = experiment.Definition

// ExperimentConfig tunes experiment execution.
type ExperimentConfig = experiment.Config

// ExperimentOutput is a figure or table plus paper-vs-measured checks.
type ExperimentOutput = experiment.Output

// ExperimentResult pairs a definition with its output.
type ExperimentResult = experiment.Result

// Figure is a set of named curves; Table is a text table.
type (
	Figure = plot.Figure
	Table  = plot.Table
	Series = plot.Series
)

// Experiments lists every figure/table experiment in paper order.
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID finds one experiment ("fig01" ... "fig11", "simval",
// "thresholds").
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// DefaultExperimentConfig reproduces the paper's settings.
func DefaultExperimentConfig() ExperimentConfig { return experiment.DefaultConfig() }

// RunAllExperiments executes every experiment.
func RunAllExperiments(cfg ExperimentConfig) []ExperimentResult { return experiment.RunAll(cfg) }

// ExperimentReport renders a paper-vs-measured markdown table.
func ExperimentReport(results []ExperimentResult) string { return experiment.MarkdownReport(results) }

// RenderASCII draws a figure as terminal ASCII art.
func RenderASCII(f Figure, width, height int) (string, error) {
	return plot.RenderASCII(f, width, height)
}

// FigureCSV renders a figure as CSV.
func FigureCSV(f Figure) (string, error) { return plot.CSV(f) }
