package solve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"feasim/internal/rng"
	"feasim/internal/sim"
)

// Frontier mode answers the capacity planner's real question — "where is the
// feasibility boundary?" — without filling a dense grid. It is the paper's
// single-axis threshold bisection (Section 4) generalized to two scenario
// dimensions: start from a coarse cell grid over an axis pair, classify each
// cell by the feasibility verdict at its four corners, and subdivide only the
// cells the boundary crosses, down to a requested resolution. Cells interior
// to either region resolve at the coarsest level that proves them uniform, so
// the probe budget concentrates where the answer lives.
//
// A corner is the same point a dense sweep would expand (same axes, same seed,
// a pure function of its finest-grid coordinate), so a frontier run
// classifies exactly the sub-grid of that sweep it touches. Each level's new
// corners run as one batch on the grid sweep's point runner; a report corner
// goes without its target, since the verdict WeightedEfficiency >= target is
// every backend's Feasible rule and the target would only add the analytic
// threshold search. Analytic corners sharing an answer key with an earlier
// corner, in this level or a coarser one, copy its answer, so the probes and
// stats do not depend on thread timing.

// Frontier axis names (the QuerySweepSpec JSON field names, so a sweep spec
// and a frontier spec describe axes in the same vocabulary).
const (
	FrontierAxisW        = "w"
	FrontierAxisUtil     = "util"
	FrontierAxisRatio    = "task_ratio"
	FrontierAxisOwnerCV2 = "owner_cv2"
	FrontierAxisSpread   = "spread"
)

// Defaults applied when FrontierSpec leaves the tuning fields zero.
const (
	// DefaultFrontierCoarse is the initial cell count per axis.
	DefaultFrontierCoarse = 4
	// DefaultFrontierDepth is the number of refinement halvings below the
	// coarse grid.
	DefaultFrontierDepth = 3
	// maxFrontierResolution bounds the finest cells-per-axis count
	// (coarse << depth) so a hostile spec cannot demand an unbounded node
	// lattice.
	maxFrontierResolution = 4096
)

// FrontierAxis is one dimension of the frontier search: a sweep axis name
// plus the closed value range to search over.
type FrontierAxis struct {
	// Axis names the swept dimension: "w", "util", "task_ratio" or
	// "owner_cv2" (whichever apply to the base query's kind).
	Axis string `json:"axis"`
	// Min and Max bound the searched range (inclusive).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// value maps finest-grid coordinate i of res cells onto the axis range.
func (a FrontierAxis) value(i, res int) float64 {
	return a.Min + (a.Max-a.Min)*float64(i)/float64(res)
}

// validate checks one axis declaration.
func (a FrontierAxis) validate(label string) error {
	switch {
	case a.Axis != FrontierAxisW && a.Axis != FrontierAxisUtil &&
		a.Axis != FrontierAxisRatio && a.Axis != FrontierAxisOwnerCV2 &&
		a.Axis != FrontierAxisSpread:
		return fmt.Errorf("solve: frontier %s axis %q unknown (want %q, %q, %q, %q or %q)",
			label, a.Axis, FrontierAxisW, FrontierAxisUtil, FrontierAxisRatio, FrontierAxisOwnerCV2, FrontierAxisSpread)
	case math.IsNaN(a.Min) || math.IsInf(a.Min, 0) || math.IsNaN(a.Max) || math.IsInf(a.Max, 0):
		return fmt.Errorf("solve: frontier %s axis %q needs finite bounds, got [%v, %v]", label, a.Axis, a.Min, a.Max)
	case !(a.Min < a.Max):
		return fmt.Errorf("solve: frontier %s axis %q needs min < max, got [%v, %v]", label, a.Axis, a.Min, a.Max)
	case a.Axis == FrontierAxisUtil && (a.Min < 0 || a.Max >= 1):
		return fmt.Errorf("solve: frontier %s axis util must stay inside [0,1), got [%v, %v]", label, a.Min, a.Max)
	case a.Axis == FrontierAxisW && a.Min < 1:
		return fmt.Errorf("solve: frontier %s axis w needs min >= 1, got %v", label, a.Min)
	case a.Axis == FrontierAxisRatio && !(a.Min > 0):
		return fmt.Errorf("solve: frontier %s axis task_ratio needs min > 0, got %v", label, a.Min)
	case a.Axis == FrontierAxisOwnerCV2 && a.Min < 0:
		return fmt.Errorf("solve: frontier %s axis owner_cv2 needs min >= 0, got %v", label, a.Min)
	case a.Axis == FrontierAxisSpread && a.Min < 0:
		return fmt.Errorf("solve: frontier %s axis spread needs min >= 0, got %v", label, a.Min)
	}
	return nil
}

// apply writes the axis value into the axis point.
func (a FrontierAxis) apply(ap *axisPoint, v float64) {
	switch a.Axis {
	case FrontierAxisW:
		// The workstation axis is integral; nodes round to the nearest count.
		ap.w = int(math.Round(v))
	case FrontierAxisUtil:
		ap.util = v
	case FrontierAxisRatio:
		ap.ratio = v
	case FrontierAxisOwnerCV2:
		ap.cv2 = v
	case FrontierAxisSpread:
		ap.spread = v
	}
}

// FrontierSpec declares a frontier search: a base query carrying a
// feasibility verdict (a report or timeline query with target_eff set), two
// distinct scenario axes, and the refinement budget. The finest resolution is
// coarse·2^depth cells per axis; the equivalent dense sweep would evaluate
// (coarse·2^depth + 1)² grid points.
type FrontierSpec struct {
	// Base is the query probed at every evaluated corner. Its kind must
	// produce a feasibility verdict: a report query (scenario target_eff set)
	// or a timeline query (feasible iff every epoch meets the target).
	Base Query

	// X and Y are the two searched axes; they must name distinct dimensions.
	X FrontierAxis
	Y FrontierAxis

	// Coarse is the initial cell count per axis; 0 means
	// DefaultFrontierCoarse.
	Coarse int
	// Depth is the number of refinement halvings; 0 means
	// DefaultFrontierDepth, negative means none (classify the coarse grid
	// only — the dense-equivalent case when Coarse is the full resolution).
	Depth int

	// Backend names the solver classifying the corners; empty means analytic.
	Backend string

	// Workers bounds the per-level probe pool; 0 means GOMAXPROCS.
	Workers int
	// Seed is the root of the deterministic per-corner seed split.
	Seed uint64
	// Protocol overrides the simulation backends' output-analysis protocol.
	Protocol *sim.Protocol
	// Warmup overrides the DES backend's warmup job count.
	Warmup int
}

// frontierJSON is the wire form of FrontierSpec.
type frontierJSON struct {
	Base     json.RawMessage `json:"base"`
	X        FrontierAxis    `json:"x"`
	Y        FrontierAxis    `json:"y"`
	Coarse   int             `json:"coarse,omitempty"`
	Depth    int             `json:"depth,omitempty"`
	Backend  string          `json:"backend,omitempty"`
	Workers  int             `json:"workers,omitempty"`
	Seed     uint64          `json:"seed,omitempty"`
	Protocol *sim.Protocol   `json:"protocol,omitempty"`
	Warmup   int             `json:"warmup,omitempty"`
}

// MarshalJSON implements json.Marshaler, nesting the base query envelope.
func (sp FrontierSpec) MarshalJSON() ([]byte, error) {
	var base json.RawMessage
	if sp.Base != nil {
		b, err := MarshalQuery(sp.Base)
		if err != nil {
			return nil, err
		}
		base = b
	}
	return json.Marshal(frontierJSON{
		Base: base, X: sp.X, Y: sp.Y, Coarse: sp.Coarse, Depth: sp.Depth,
		Backend: sp.Backend, Workers: sp.Workers, Seed: sp.Seed,
		Protocol: sp.Protocol, Warmup: sp.Warmup,
	})
}

// UnmarshalJSON implements json.Unmarshaler with strict field checking.
func (sp *FrontierSpec) UnmarshalJSON(data []byte) error {
	var raw frontierJSON
	if err := unmarshalStrict(data, &raw); err != nil {
		return err
	}
	var base Query
	if len(raw.Base) > 0 {
		q, err := decodeQuery(raw.Base)
		if err != nil {
			return err
		}
		base = q
	}
	*sp = FrontierSpec{
		Base: base, X: raw.X, Y: raw.Y, Coarse: raw.Coarse, Depth: raw.Depth,
		Backend: raw.Backend, Workers: raw.Workers, Seed: raw.Seed,
		Protocol: raw.Protocol, Warmup: raw.Warmup,
	}
	return nil
}

// backend resolves the backend name.
func (sp FrontierSpec) backend() string {
	if sp.Backend == "" {
		return BackendAnalytic
	}
	return sp.Backend
}

// coarse resolves the initial cell count.
func (sp FrontierSpec) coarse() int {
	if sp.Coarse <= 0 {
		return DefaultFrontierCoarse
	}
	return sp.Coarse
}

// depth resolves the refinement depth.
func (sp FrontierSpec) depth() int {
	if sp.Depth < 0 {
		return 0
	}
	if sp.Depth == 0 {
		return DefaultFrontierDepth
	}
	return sp.Depth
}

// Resolution is the finest cells-per-axis count (coarse · 2^depth): the
// resolution the boundary is located to, and the cell count per axis of the
// equivalent dense sweep.
func (sp FrontierSpec) Resolution() int { return sp.coarse() << sp.depth() }

// Validate checks the spec: a feasibility-bearing base query, two distinct
// well-formed axes that apply to the base kind, a known backend, and a
// bounded resolution. Axis applicability is probed structurally at the
// (min, min) corner — a per-value domain failure there (e.g. a timeline
// rescale overflowing a phase) is a legal per-cell outcome, not a spec error.
func (sp FrontierSpec) Validate() error {
	if sp.Base == nil {
		return fmt.Errorf("solve: frontier spec needs a base query")
	}
	switch sp.Base.Kind() {
	case KindReport, KindTimeline:
	default:
		return fmt.Errorf("solve: frontier mode needs a feasibility verdict per cell; %q queries carry none (use a report or timeline query with target_eff)", sp.Base.Kind())
	}
	if err := sp.X.validate("x"); err != nil {
		return err
	}
	if err := sp.Y.validate("y"); err != nil {
		return err
	}
	if sp.X.Axis == sp.Y.Axis {
		return fmt.Errorf("solve: frontier axes must differ, both are %q", sp.X.Axis)
	}
	if sp.Coarse > maxFrontierResolution {
		return fmt.Errorf("solve: frontier coarse %d exceeds %d cells per axis", sp.Coarse, maxFrontierResolution)
	}
	if sp.Depth > 20 || sp.Resolution() > maxFrontierResolution || sp.Resolution() <= 0 {
		return fmt.Errorf("solve: frontier resolution %d·2^%d exceeds %d cells per axis", sp.coarse(), sp.depth(), maxFrontierResolution)
	}
	if _, err := NewSolver(sp.backend(), Options{}); err != nil {
		return err
	}
	// Structural probe: an axis that does not apply to the base kind (or a
	// task_ratio axis on an explicit-station scenario) must fail the whole
	// spec loudly, exactly as the dense sweep's grid expansion would.
	ax := axisPoint{w: -1, util: -1, ratio: -1, cv2: -1, spread: -1}
	sp.X.apply(&ax, sp.X.Min)
	sp.Y.apply(&ax, sp.Y.Min)
	if _, err := sp.Base.withAxes(ax); err != nil && !errors.As(err, new(*PointDomainError)) {
		return err
	}
	_, err := frontierTarget(sp.Base)
	return err
}

// frontierTarget returns the base query's target efficiency, checking that
// it is positive so every corner gets a feasibility verdict.
func frontierTarget(q Query) (float64, error) {
	var target float64
	switch t := q.(type) {
	case ReportQuery:
		target = t.Scenario.TargetEff
	case TimelineQuery:
		target = t.Scenario.TargetEff
	}
	if !(target > 0) {
		return 0, fmt.Errorf("solve: frontier mode needs scenario target_eff > 0 for the feasible/infeasible verdict")
	}
	return target, nil
}

// Frontier cell verdicts.
const (
	// FrontierFeasible marks a cell whose four corners all meet the target:
	// the whole cell is classified feasible without probing its interior.
	FrontierFeasible = "feasible"
	// FrontierInfeasible marks a cell whose four corners all miss the target.
	FrontierInfeasible = "infeasible"
	// FrontierBoundary marks a finest-resolution cell the boundary still
	// crosses — the frontier the planner asked for.
	FrontierBoundary = "boundary"
	// FrontierError marks a cell whose corner probe failed with a per-point
	// domain error (the 422 taxonomy class); the error rides in the cell.
	FrontierError = "error"
)

// FrontierCell is one resolved cell of a frontier run: its axis-space bounds,
// its finest-grid placement, and the verdict. Cells stream in resolution
// order — every cell of one refinement level before any of the next.
type FrontierCell struct {
	// Depth is the refinement level the cell resolved at (0 = coarse grid).
	Depth int `json:"depth"`
	// X0..Y1 bound the cell in axis units.
	X0 float64 `json:"x0"`
	X1 float64 `json:"x1"`
	Y0 float64 `json:"y0"`
	Y1 float64 `json:"y1"`
	// IX, IY locate the cell's origin on the finest grid; Span is its side
	// length in finest-grid cells (1 at full resolution).
	IX   int `json:"ix"`
	IY   int `json:"iy"`
	Span int `json:"span"`
	// Verdict is the cell classification (feasible, infeasible, boundary,
	// error).
	Verdict string `json:"verdict"`
	// Err is non-nil for error cells; Error mirrors it for JSON output.
	Err   error  `json:"-"`
	Error string `json:"error,omitempty"`
}

// FrontierStats summarizes a completed frontier run.
type FrontierStats struct {
	// Resolution is the finest cells-per-axis count.
	Resolution int `json:"resolution"`
	// Cells counts resolved cells; Boundary and Failed the boundary and
	// error subsets.
	Cells    int `json:"cells"`
	Boundary int `json:"boundary"`
	Failed   int `json:"failed"`
	// Evaluations counts classified corners that reached the probe stage —
	// the number a dense sweep multiplies by. CacheHits is the subset that
	// copied the verdict of an earlier corner with the same analytic answer
	// key instead of calling the backend; a copy of a failed probe carries
	// its error and is not a hit.
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits"`
	// DenseEvaluations is the probe count of the equivalent dense sweep:
	// (resolution+1)².
	DenseEvaluations int `json:"dense_evaluations"`
}

// FrontierResult is a collected frontier run.
type FrontierResult struct {
	Cells []FrontierCell `json:"cells"`
	Stats FrontierStats  `json:"stats"`
}

// frontierNode is one evaluated corner of the refinement lattice.
type frontierNode struct {
	feasible bool
	err      error
}

// frontierCellRef is one unresolved cell in the refinement queue.
type frontierCellRef struct {
	ix, iy, span int
}

// frontierRun holds the engine state shared across refinement levels.
type frontierRun struct {
	spec   FrontierSpec
	res    int
	target float64
	sweep  *sweepRun // keeps every level's answers by key
	seed   *rng.Stream

	nodes map[[2]int]frontierNode // read and written by the run goroutine only

	mu    sync.Mutex // guards stats, which the stats callback reads
	stats FrontierStats
}

// point builds batch point i for finest-grid corner n, identical to the
// dense sweep's expansion of the same point: axes applied through withAxes,
// the seed split from the root stream by the corner's linear grid index. A
// report corner is validated with its target, then sent without it: the
// verdict is WeightedEfficiency >= target, the rule every backend uses for
// Feasible, so the analytic backend skips the threshold search a target
// adds to a report. An axis or validation error becomes the point's error.
func (fr *frontierRun) point(i int, n [2]int) QueryPoint {
	idx := n[0]*(fr.res+1) + n[1]
	ax := axisPoint{index: idx, w: -1, util: -1, ratio: -1, cv2: -1, spread: -1, seed: fr.seed.SplitSeed(uint64(idx))}
	fr.spec.X.apply(&ax, fr.spec.X.value(n[0], fr.res))
	fr.spec.Y.apply(&ax, fr.spec.Y.value(n[1], fr.res))
	q, err := fr.spec.Base.withAxes(ax)
	if err == nil {
		if verr := q.Validate(); verr != nil {
			err = &PointDomainError{Err: verr}
		} else if rq, ok := q.(ReportQuery); ok {
			rq.Scenario.TargetEff = 0
			q = rq
		}
	}
	return QueryPoint{Index: i, Backend: fr.spec.backend(), Query: q, Err: err}
}

// frontierVerdict extracts the feasibility verdict from an answer.
func frontierVerdict(a Answer, target float64) (bool, error) {
	switch t := a.(type) {
	case ReportAnswer:
		return t.Report.WeightedEfficiency >= target, nil
	case TimelineAnswer:
		if len(t.Epochs) == 0 {
			return false, fmt.Errorf("solve: frontier probe returned an empty timeline")
		}
		for _, ep := range t.Epochs {
			if ep.Feasible == nil {
				return false, fmt.Errorf("solve: frontier probe returned no feasibility verdict; set scenario target_eff")
			}
			if !*ep.Feasible {
				// A workday is feasible only when every launch epoch meets
				// the target.
				return false, nil
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("solve: frontier mode cannot classify %q answers", a.Kind())
	}
}

// SweepFrontier runs the adaptive frontier refinement and streams resolved
// cells over the returned channel, every cell of one refinement level before
// any of the next. The channel closes once the search completes or ctx is
// cancelled; the stats callback is valid after the channel closes. Backends
// are built from the standard registry per the spec.
func SweepFrontier(ctx context.Context, spec FrontierSpec) (<-chan FrontierCell, func() FrontierStats, error) {
	return SweepFrontierSolver(ctx, spec, nil)
}

// SweepFrontierSolver is SweepFrontier with an injected solver for the spec's
// backend (nil builds one from the registry) — the hook the HTTP service uses
// to route frontier probes through its own cached, fault-wrapped solver set,
// so repeated refinements compound with the server's answer cache.
func SweepFrontierSolver(ctx context.Context, spec FrontierSpec, solver Solver) (<-chan FrontierCell, func() FrontierStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	sr, err := newSweepRun([]string{spec.backend()}, spec.Protocol, spec.Warmup, spec.Workers)
	if err != nil {
		return nil, nil, err
	}
	if solver != nil {
		sr.solvers[spec.backend()] = solver
	}
	sr.kept = make(map[answerKey]*QueryResult)
	res := spec.Resolution()
	target, _ := frontierTarget(spec.Base) // checked by Validate
	fr := &frontierRun{
		spec:   spec,
		res:    res,
		target: target,
		sweep:  sr,
		seed:   rng.NewStream(spec.Seed),
		nodes:  make(map[[2]int]frontierNode),
	}
	fr.stats.Resolution = res
	fr.stats.DenseEvaluations = (res + 1) * (res + 1)

	out := make(chan FrontierCell, sr.workers)
	go func() {
		defer close(out)
		fr.run(ctx, out)
	}()
	return out, func() FrontierStats {
		fr.mu.Lock()
		defer fr.mu.Unlock()
		return fr.stats
	}, nil
}

// run drives the refinement loop: evaluate the level's unseen corners as one
// sweep batch, classify its cells in deterministic order, stream resolved
// cells, queue the straddling cells' children for the next level.
func (fr *frontierRun) run(ctx context.Context, out chan<- FrontierCell) {
	span0 := fr.res / fr.spec.coarse()
	var queue []frontierCellRef
	for ix := 0; ix < fr.res; ix += span0 {
		for iy := 0; iy < fr.res; iy += span0 {
			queue = append(queue, frontierCellRef{ix: ix, iy: iy, span: span0})
		}
	}
	for depth := 0; len(queue) > 0; depth++ {
		if !fr.evalLevel(ctx, queue) {
			return // ctx cancelled; the caller reads ctx.Err()
		}
		var next []frontierCellRef
		for _, c := range queue {
			cell, subdivide := fr.classify(depth, c)
			if subdivide {
				half := c.span / 2
				next = append(next,
					frontierCellRef{ix: c.ix, iy: c.iy, span: half},
					frontierCellRef{ix: c.ix + half, iy: c.iy, span: half},
					frontierCellRef{ix: c.ix, iy: c.iy + half, span: half},
					frontierCellRef{ix: c.ix + half, iy: c.iy + half, span: half},
				)
				continue
			}
			fr.mu.Lock()
			fr.stats.Cells++
			switch cell.Verdict {
			case FrontierBoundary:
				fr.stats.Boundary++
			case FrontierError:
				fr.stats.Failed++
			}
			fr.mu.Unlock()
			select {
			case out <- cell:
			case <-ctx.Done():
				return
			}
		}
		queue = next
	}
}

// evalLevel answers the queued cells' unmemoized corners as one sweep batch
// and folds the results into the memo and stats: a corner with a domain
// error is no evaluation, and a copied answer is a cache hit only when its
// verdict holds. Returns false when ctx ended mid-level.
func (fr *frontierRun) evalLevel(ctx context.Context, queue []frontierCellRef) bool {
	var todo [][2]int
	for _, c := range queue {
		for _, n := range c.corners() {
			if _, ok := fr.nodes[n]; !ok {
				fr.nodes[n] = frontierNode{} // placeholder: a corner shared by two cells is asked once
				todo = append(todo, n)
			}
		}
	}
	pts := make([]QueryPoint, len(todo))
	for j, n := range todo {
		pts[j] = fr.point(j, n)
	}
	results := fr.sweep.run(ctx, pts, nil)
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for j, r := range results {
		if r.Point.Backend == "" {
			continue // never claimed: ctx ended first
		}
		node := frontierNode{err: r.Err}
		if r.Point.Err == nil {
			fr.stats.Evaluations++
			if r.Err == nil {
				node.feasible, node.err = frontierVerdict(r.Answer, fr.target)
			}
			if r.Cached && node.err == nil {
				fr.stats.CacheHits++
			}
		}
		fr.nodes[todo[j]] = node
	}
	return ctx.Err() == nil
}

// corners lists the cell's four corner coordinates.
func (c frontierCellRef) corners() [4][2]int {
	return [4][2]int{
		{c.ix, c.iy},
		{c.ix + c.span, c.iy},
		{c.ix, c.iy + c.span},
		{c.ix + c.span, c.iy + c.span},
	}
}

// classify resolves one cell from its corner verdicts, or asks for
// subdivision when the boundary crosses it and resolution remains.
func (fr *frontierRun) classify(depth int, c frontierCellRef) (FrontierCell, bool) {
	cell := FrontierCell{
		Depth: depth,
		X0:    fr.spec.X.value(c.ix, fr.res),
		X1:    fr.spec.X.value(c.ix+c.span, fr.res),
		Y0:    fr.spec.Y.value(c.iy, fr.res),
		Y1:    fr.spec.Y.value(c.iy+c.span, fr.res),
		IX:    c.ix, IY: c.iy, Span: c.span,
	}
	feasible, infeasible := 0, 0
	var nodeErr error
	for _, n := range c.corners() {
		node := fr.nodes[n]
		switch {
		case node.err != nil:
			if nodeErr == nil {
				nodeErr = node.err
			}
		case node.feasible:
			feasible++
		default:
			infeasible++
		}
	}
	switch {
	case nodeErr != nil:
		// A corner outside the model's domain (util rescale overflow, an
		// unanswerable point) resolves the cell as an error — the per-cell
		// 422, never an aborted run.
		cell.Verdict = FrontierError
		cell.Err = nodeErr
		cell.Error = nodeErr.Error()
	case feasible == 4:
		cell.Verdict = FrontierFeasible
	case infeasible == 4:
		cell.Verdict = FrontierInfeasible
	case c.span == 1:
		cell.Verdict = FrontierBoundary
	default:
		return FrontierCell{}, true
	}
	return cell, false
}

// CollectFrontier drains a frontier run into cells (in stream order) plus the
// run stats. It returns ctx.Err() when the refinement was cut short, along
// with whatever cells resolved before the cut.
func CollectFrontier(ctx context.Context, spec FrontierSpec) (FrontierResult, error) {
	ch, stats, err := SweepFrontier(ctx, spec)
	if err != nil {
		return FrontierResult{}, err
	}
	var cells []FrontierCell
	for c := range ch {
		cells = append(cells, c)
	}
	res := FrontierResult{Cells: cells, Stats: stats()}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// ParseFrontier decodes a frontier spec from JSON, rejecting unknown fields
// and validating the search declaration.
func ParseFrontier(data []byte) (FrontierSpec, error) {
	var sp FrontierSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return FrontierSpec{}, fmt.Errorf("solve: bad frontier spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return FrontierSpec{}, err
	}
	return sp, nil
}

// LoadFrontier reads and decodes a frontier spec JSON file.
func LoadFrontier(path string) (FrontierSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FrontierSpec{}, err
	}
	return ParseFrontier(data)
}
