package feasim

import (
	"context"

	"feasim/internal/solve"
)

// QuerySweepSpec declares a grid over any query kind: a base query (JSON: a
// nested {"kind": ...} envelope under "base") plus the axis lists that apply
// to that kind — scenario axes for report/distribution, W/Util for
// threshold, MaxW/Util for partition, Util/TaskRatio for scaled.
type QuerySweepSpec = solve.QuerySweepSpec

// QuerySweepPoint is one cell of an expanded query grid.
type QuerySweepPoint = solve.QueryPoint

// QuerySweepResult is one streamed query-sweep result: the point, its typed
// Answer or error, and the dedup-cache flag.
type QuerySweepResult = solve.QueryResult

// RunQuerySweep fans the expanded grid across a context-cancellable worker
// pool (spec.Workers, default GOMAXPROCS) and streams typed Answers over the
// returned channel as they complete. Per-point seeds are split
// deterministically from spec.Seed, so results are reproducible regardless
// of worker count; a repeated analytic point is solved once, at its lowest
// grid index, and the repeats copy that answer (flagged cached).
func RunQuerySweep(ctx context.Context, spec QuerySweepSpec) (<-chan QuerySweepResult, error) {
	return solve.SweepQueries(ctx, spec)
}

// CollectQuerySweep runs the grid like RunQuerySweep and returns the
// results in grid order. When ctx is cancelled mid-sweep it returns the
// points that completed, still in grid order, along with ctx.Err().
func CollectQuerySweep(ctx context.Context, spec QuerySweepSpec) ([]QuerySweepResult, error) {
	return solve.CollectQueries(ctx, spec)
}

// ParseQuerySweep decodes a QuerySweepSpec from JSON, rejecting unknown
// fields and unknown query kinds.
func ParseQuerySweep(data []byte) (QuerySweepSpec, error) { return solve.ParseQuerySweep(data) }

// LoadQuerySweep reads and decodes a query sweep spec JSON file.
func LoadQuerySweep(path string) (QuerySweepSpec, error) { return solve.LoadQuerySweep(path) }

// LoadReportSweep reads a report grid file — the QuerySweepSpec JSON shape
// with a bare Scenario, not a query envelope, under "base" — as a
// QuerySweepSpec over a ReportQuery base, rejecting unknown fields.
func LoadReportSweep(path string) (QuerySweepSpec, error) { return solve.LoadReportSweep(path) }

// FrontierSpec declares an adaptive frontier search: a base query carrying a
// feasibility verdict, two scenario axes (JSON: "x"/"y" with an axis name and
// range), and a refinement budget (coarse cells halved depth times). It is
// the paper's single-axis feasibility threshold generalized to a 2-D
// boundary, probed only where the boundary lives.
type FrontierSpec = solve.FrontierSpec

// FrontierAxis is one searched dimension: an axis name ("w", "util",
// "task_ratio", "owner_cv2" or "spread") plus its closed value range.
type FrontierAxis = solve.FrontierAxis

// FrontierCell is one resolved cell of a frontier run: bounds, finest-grid
// placement, and the verdict (feasible, infeasible, boundary, error).
type FrontierCell = solve.FrontierCell

// FrontierStats summarizes a frontier run, including the probe count the
// equivalent dense grid would have paid.
type FrontierStats = solve.FrontierStats

// FrontierResult is a collected frontier run: cells in stream order plus
// stats.
type FrontierResult = solve.FrontierResult

// Frontier cell verdicts and axis names.
const (
	FrontierFeasible   = solve.FrontierFeasible
	FrontierInfeasible = solve.FrontierInfeasible
	FrontierBoundary   = solve.FrontierBoundary
	FrontierError      = solve.FrontierError

	FrontierAxisW        = solve.FrontierAxisW
	FrontierAxisUtil     = solve.FrontierAxisUtil
	FrontierAxisRatio    = solve.FrontierAxisRatio
	FrontierAxisOwnerCV2 = solve.FrontierAxisOwnerCV2
	FrontierAxisSpread   = solve.FrontierAxisSpread
)

// RunFrontier starts the adaptive refinement and streams resolved cells in
// level order — every cell of one refinement level before any of the next.
// Corner probes reuse the sweep engine's per-point path: deterministic
// coordinate-derived seeds and the analytic dedup cache, so refinement
// levels hit the memo instead of re-solving shared corners. The stats
// callback is valid once the channel closes.
func RunFrontier(ctx context.Context, spec FrontierSpec) (<-chan FrontierCell, func() FrontierStats, error) {
	return solve.SweepFrontier(ctx, spec)
}

// CollectFrontier drains RunFrontier into the cell list plus run stats. When
// ctx is cancelled mid-run it returns the resolved prefix along with
// ctx.Err().
func CollectFrontier(ctx context.Context, spec FrontierSpec) (FrontierResult, error) {
	return solve.CollectFrontier(ctx, spec)
}

// ParseFrontier decodes a FrontierSpec from JSON, rejecting unknown fields
// and invalid search declarations.
func ParseFrontier(data []byte) (FrontierSpec, error) { return solve.ParseFrontier(data) }

// LoadFrontier reads and decodes a frontier spec JSON file.
func LoadFrontier(path string) (FrontierSpec, error) { return solve.LoadFrontier(path) }
