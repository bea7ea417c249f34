package solve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"feasim/internal/rng"
	"feasim/internal/sim"
)

// The query sweep: axis expansion, a worker pool, deterministic per-point
// seeding and analytic deduplication over any query kind. A report grid
// file (a bare scenario under "base", LoadReportSweep) decodes to the same
// spec.

// axisPoint is one cell of the axis cross product. A negative value means
// "keep the base query's value" (axes that do not apply to a query kind are
// rejected loudly by withAxes).
type axisPoint struct {
	// index is the point's position in grid order, used to name scenarios.
	index  int
	w      int
	util   float64
	ratio  float64
	cv2    float64
	spread float64
	// seed re-seeds the point's stochastic work; a point outside the
	// model's domain keeps the base query's seed.
	seed uint64
}

// PointDomainError marks a per-point failure of the model's domain — an axis
// value that produces a point no backend could answer (e.g. a utilization
// rescale pushing a phase to saturation). The grid expansion records it on
// the point instead of aborting the sweep, and the HTTP error taxonomy maps
// it to the unprocessable class (422), not a server fault.
type PointDomainError struct {
	Err error
}

func (e *PointDomainError) Error() string { return e.Err.Error() }
func (e *PointDomainError) Unwrap() error { return e.Err }

// applyScenarioAxes is the shared axis interpretation for scenario-carrying
// query kinds (report, distribution) — identical to PR 1's grid expansion.
func applyScenarioAxes(sc Scenario, ax axisPoint) (Scenario, error) {
	if ax.w >= 0 {
		sc.W = ax.w
	}
	if ax.util >= 0 {
		sc.Util = ax.util
		sc.P = 0
	}
	if ax.ratio >= 0 {
		if sc.Explicit() {
			// Explicit-station scenarios carry no aggregate owner demand
			// (sc.O == 0), so ratio·O·W would silently expand to J = 0 grids.
			return sc, fmt.Errorf("solve: the task_ratio axis does not apply to explicit-station scenarios (owner demand is per station, not aggregate)")
		}
		sc.J = ax.ratio * sc.O * float64(sc.W)
	}
	if ax.cv2 >= 0 {
		sc.OwnerCV2 = ax.cv2
	}
	if ax.spread >= 0 {
		if !sc.Heterogeneous() {
			return sc, fmt.Errorf("solve: the spread axis applies only to heterogeneous (model-form) scenarios")
		}
		specs, err := spreadStations(sc.Stations, sc.O, ax.spread)
		if err != nil {
			// The rescale pushed a station outside [0,1): this one grid point
			// is outside the model's domain, but its neighbours may not be.
			// Keep the original (marshalable) station mix, name the point, and
			// report a per-point domain error so the sweep carries on.
			sc.Name = pointName(sc.Name, ax.index)
			return sc, &PointDomainError{Err: err}
		}
		sc.Stations = specs
	}
	sc.Name = pointName(sc.Name, ax.index)
	sc.Seed = ax.seed
	return sc, nil
}

// spreadStations rescales a model-form fleet's availability dispersion about
// its count-weighted mean: p_i' = p̄ + spread·(p_i − p̄). Spread 0 collapses
// the fleet onto its mean availability (the homogeneous cousin), 1 is the
// identity, and larger values widen the mix. Speeds and counts are untouched;
// per-station utilizations are resolved to explicit p values.
func spreadStations(specs []StationSpec, o, spread float64) ([]StationSpec, error) {
	var mean, total float64
	ps := make([]float64, len(specs))
	for i, ss := range specs {
		p, err := ss.resolveP(o)
		if err != nil {
			return nil, fmt.Errorf("solve: station %d: %w", i, err)
		}
		ps[i] = p
		mean += p * float64(ss.count())
		total += float64(ss.count())
	}
	mean /= total
	out := make([]StationSpec, len(specs))
	for i, ss := range specs {
		p := mean + spread*(ps[i]-mean)
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("solve: spread %g pushes station %d availability to p=%v (must stay in [0,1))", spread, i, p)
		}
		out[i] = StationSpec{P: p, Speed: ss.Speed, Count: ss.Count}
	}
	return out, nil
}

// cacheKey deduplicates analytic grid points across query kinds: the kind
// discriminator, a comparable scenario core (the report fast path pays no
// formatting or allocation, preserving PR 2's struct-key optimization), and
// a kind-specific extra for the non-report kinds, which are rare enough per
// grid that a formatted string costs nothing measurable.
type cacheKey struct {
	kind  string
	scen  analyticKey
	extra string
}

// ---- axis / dedup hooks per query kind ----

func (q ReportQuery) withAxes(ax axisPoint) (Query, error) {
	sc, err := applyScenarioAxes(q.Scenario, ax)
	q.Scenario = sc
	return q, err
}

func (q ReportQuery) dedupKey() (cacheKey, bool) {
	k, extra, ok := q.Scenario.analyticCacheKey()
	return cacheKey{kind: KindReport, scen: k, extra: extra}, ok
}

func (q DistributionQuery) withAxes(ax axisPoint) (Query, error) {
	sc, err := applyScenarioAxes(q.Scenario, ax)
	q.Scenario = sc
	return q, err
}

func (q DistributionQuery) dedupKey() (cacheKey, bool) {
	k, extra, ok := q.Scenario.analyticCacheKey()
	return cacheKey{
		kind:  KindDistribution,
		scen:  k,
		extra: fmt.Sprintf("%s%v|%v", extra, q.Quantiles, q.Deadlines),
	}, ok
}

func (q ThresholdQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.ratio >= 0 {
		return nil, fmt.Errorf("solve: the task_ratio axis is the threshold query's search variable")
	}
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to threshold queries")
	}
	if ax.w >= 0 {
		q.W = ax.w
	}
	if ax.util >= 0 {
		q.Util = ax.util
	}
	if ax.spread >= 0 {
		if len(q.Stations) == 0 {
			return nil, fmt.Errorf("solve: the spread axis needs a station template on the threshold query")
		}
		specs, err := spreadStations(q.Stations, q.O, ax.spread)
		if err != nil {
			return q, &PointDomainError{Err: err}
		}
		q.Stations = specs
	}
	q.Seed = ax.seed
	return q, nil
}

func (q ThresholdQuery) dedupKey() (cacheKey, bool) {
	// The analytic threshold solver ignores the seed, so it is excluded. The
	// station-template signature folds the heterogeneity identity in.
	tpl, err := stationTemplateSignature(q.Stations, q.O)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		kind:  KindThreshold,
		extra: fmt.Sprintf("%d|%g|%g|%g|%d|%s", q.W, q.O, q.Util, q.TargetEff, q.MaxRatio, tpl),
	}, true
}

func (q PartitionQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.ratio >= 0 {
		return nil, fmt.Errorf("solve: the task_ratio axis does not apply to partition queries")
	}
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to partition queries")
	}
	if ax.w >= 0 {
		q.MaxW = ax.w
	}
	if ax.util >= 0 {
		q.Util = ax.util
	}
	if ax.spread >= 0 {
		if len(q.Stations) == 0 {
			return nil, fmt.Errorf("solve: the spread axis needs a station template on the partition query")
		}
		specs, err := spreadStations(q.Stations, q.O, ax.spread)
		if err != nil {
			return q, &PointDomainError{Err: err}
		}
		q.Stations = specs
	}
	q.Seed = ax.seed
	return q, nil
}

func (q PartitionQuery) dedupKey() (cacheKey, bool) {
	tpl, err := stationTemplateSignature(q.Stations, q.O)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		kind:  KindPartition,
		extra: fmt.Sprintf("%g|%g|%g|%g|%d|%s", q.J, q.O, q.Util, q.TargetEff, q.MaxW, tpl),
	}, true
}

func (q ScaledQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.w >= 0 {
		return nil, fmt.Errorf("solve: the w axis does not apply to scaled queries (set ws in the query)")
	}
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to scaled queries")
	}
	if ax.util >= 0 {
		q.Util = ax.util
	}
	if ax.ratio >= 0 {
		q.T = ax.ratio * q.O
	}
	if ax.spread >= 0 {
		if len(q.Stations) == 0 {
			return nil, fmt.Errorf("solve: the spread axis needs a station template on the scaled query")
		}
		specs, err := spreadStations(q.Stations, q.O, ax.spread)
		if err != nil {
			return q, &PointDomainError{Err: err}
		}
		q.Stations = specs
	}
	return q, nil
}

func (q ScaledQuery) dedupKey() (cacheKey, bool) {
	tpl, err := stationTemplateSignature(q.Stations, q.O)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		kind:  KindScaled,
		extra: fmt.Sprintf("%g|%g|%g|%v|%s", q.T, q.O, q.Util, q.Ws, tpl),
	}, true
}

func (q TimelineQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to timeline queries")
	}
	if ax.spread >= 0 {
		return nil, fmt.Errorf("solve: the spread axis does not apply to timeline queries (phased scenarios are homogeneous)")
	}
	sc := q.Scenario
	if ax.w >= 0 {
		sc.W = ax.w
	}
	if ax.ratio >= 0 {
		sc.J = ax.ratio * sc.O * float64(sc.W)
	}
	if ax.util >= 0 {
		// The util axis rescales every phase so the duration-weighted mean
		// hits the axis value, preserving the schedule's day/night shape.
		phases, _ := sc.phases()
		var weighted, total float64
		for _, ph := range phases {
			weighted += ph.Util * ph.Duration
			total += ph.Duration
		}
		if !(weighted > 0) {
			return nil, fmt.Errorf("solve: the util axis cannot rescale an all-idle timeline")
		}
		factor := ax.util * total / weighted
		scaled := make([]PhaseSpec, len(phases))
		for i, ph := range phases {
			ph.Util *= factor
			if ph.Util >= 1 {
				// The rescale overflowed a peak phase: this one grid point is
				// outside the model's domain, but its neighbours may not be.
				// Name the point, keep the original (marshalable) day shape,
				// and report a per-point domain error so the sweep carries on.
				sc.Name = pointName(sc.Name, ax.index)
				q.Scenario = sc
				return q, &PointDomainError{Err: fmt.Errorf("solve: util axis %g pushes phase %q to utilization %g (must stay below 1)", ax.util, ph.Name, ph.Util)}
			}
			scaled[i] = ph
		}
		if len(sc.Schedule) > 0 {
			sc.Schedule = scaled
		} else {
			sc.Trace = scaled
		}
	}
	sc.Name = pointName(sc.Name, ax.index)
	sc.Seed = ax.seed
	q.Scenario = sc
	return q, nil
}

// pointName appends the grid-order point suffix to a scenario name.
func pointName(name string, index int) string {
	if name == "" {
		return fmt.Sprintf("point%04d", index)
	}
	return fmt.Sprintf("%s/point%04d", name, index)
}

func (q TimelineQuery) dedupKey() (cacheKey, bool) {
	sc := q.Scenario
	if !sc.Phased() || sc.Explicit() || sc.TaskDemand != "" {
		return cacheKey{}, false
	}
	// The quasi-static answer ignores Name, Seed and Samples; everything
	// else — including every phase of the timeline — is identity. Phases go
	// through the formatted extra, which also folds them into RouteHash.
	return cacheKey{
		kind: KindTimeline,
		extra: fmt.Sprintf("%g|%d|%g|%g|%g|%g|%d|%v|%v",
			sc.J, sc.W, sc.O, sc.TargetEff, q.Start, q.Horizon, q.Epochs, sc.Schedule, sc.Trace),
	}, true
}

// ---- spec ----

// QuerySweepSpec declares a query grid: a base query plus per-axis value
// lists, crossed with a backend list. Which axes apply depends on the base
// query's kind — scenario axes for report/distribution queries, W/Util for
// threshold queries, MaxW/Util for partition queries, Util/TaskRatio for
// scaled queries; an inapplicable axis fails expansion loudly. The JSON form
// nests the base query's envelope under "base".
type QuerySweepSpec struct {
	// Base is the query every grid point starts from. It may be incomplete
	// where an axis fills the value in (e.g. a zero W with a W axis).
	Base Query

	// W varies the workstation count (MaxW for partition queries).
	W []int
	// Util varies the owner utilization.
	Util []float64
	// TaskRatio varies the task ratio T/O (scenario J = ratio·O·W; scaled
	// query T = ratio·O).
	TaskRatio []float64
	// OwnerCV2 varies the owner demand variance (scenario kinds only).
	OwnerCV2 []float64
	// Spread varies a heterogeneous fleet's availability dispersion about
	// its count-weighted mean (p_i' = p̄ + spread·(p_i − p̄)); applies to
	// heterogeneous scenarios and station-template queries only.
	Spread []float64

	// Backends lists the solvers to fan each point across; empty means
	// analytic only.
	Backends []string

	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Seed is the root of the deterministic per-point seed split.
	Seed uint64
	// Protocol overrides the simulation backends' output-analysis protocol.
	Protocol *sim.Protocol
	// Warmup overrides the DES backend's warmup job count.
	Warmup int
}

// querySweepJSON is the wire form of QuerySweepSpec.
type querySweepJSON struct {
	Base      json.RawMessage `json:"base"`
	W         []int           `json:"w,omitempty"`
	Util      []float64       `json:"util,omitempty"`
	TaskRatio []float64       `json:"task_ratio,omitempty"`
	OwnerCV2  []float64       `json:"owner_cv2,omitempty"`
	Spread    []float64       `json:"spread,omitempty"`
	Backends  []string        `json:"backends,omitempty"`
	Workers   int             `json:"workers,omitempty"`
	Seed      uint64          `json:"seed,omitempty"`
	Protocol  *sim.Protocol   `json:"protocol,omitempty"`
	Warmup    int             `json:"warmup,omitempty"`
}

// MarshalJSON implements json.Marshaler, nesting the base query envelope.
func (sp QuerySweepSpec) MarshalJSON() ([]byte, error) {
	var base json.RawMessage
	if sp.Base != nil {
		b, err := MarshalQuery(sp.Base)
		if err != nil {
			return nil, err
		}
		base = b
	}
	return json.Marshal(querySweepJSON{
		Base: base, W: sp.W, Util: sp.Util, TaskRatio: sp.TaskRatio, OwnerCV2: sp.OwnerCV2,
		Spread: sp.Spread, Backends: sp.Backends, Workers: sp.Workers, Seed: sp.Seed,
		Protocol: sp.Protocol, Warmup: sp.Warmup,
	})
}

// UnmarshalJSON implements json.Unmarshaler with strict field checking. The
// base query is decoded but not validated — axes may complete it.
func (sp *QuerySweepSpec) UnmarshalJSON(data []byte) error {
	var raw querySweepJSON
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
	*sp = raw.spec(base)
	return nil
}

// spec is the decoded spec over the given base query.
func (raw querySweepJSON) spec(base Query) QuerySweepSpec {
	return QuerySweepSpec{
		Base: base, W: raw.W, Util: raw.Util, TaskRatio: raw.TaskRatio, OwnerCV2: raw.OwnerCV2,
		Spread: raw.Spread, Backends: raw.Backends, Workers: raw.Workers, Seed: raw.Seed,
		Protocol: raw.Protocol, Warmup: raw.Warmup,
	}
}

// backends resolves the backend list.
func (sp QuerySweepSpec) backends() []string {
	if len(sp.Backends) == 0 {
		return []string{BackendAnalytic}
	}
	return sp.Backends
}

// QueryPoint is one cell of the expanded query grid.
type QueryPoint struct {
	// Index is the point's position in grid order; results stream in
	// completion order and can be re-sorted by it.
	Index   int    `json:"index"`
	Backend string `json:"backend"`
	Query   Query  `json:"query"`
	// Err is a per-point domain error recorded at expansion time (an axis
	// value outside the model's domain, e.g. a timeline utilization rescale
	// overflowing a peak phase). The point is never solved; its QueryResult
	// carries the error. Not part of the wire shape — results report errors.
	Err error `json:"-"`
}

// MarshalJSON wraps the query in its kind envelope.
func (p QueryPoint) MarshalJSON() ([]byte, error) {
	q, err := MarshalQuery(p.Query)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Index   int             `json:"index"`
		Backend string          `json:"backend"`
		Query   json.RawMessage `json:"query"`
	}{p.Index, p.Backend, q})
}

// QueryResult is one streamed query-sweep result.
type QueryResult struct {
	Point  QueryPoint `json:"point"`
	Answer Answer     `json:"answer,omitempty"`
	// Err is non-nil when the point's solve failed; the sweep keeps going.
	Err error `json:"-"`
	// Error mirrors Err for JSON output.
	Error string `json:"error,omitempty"`
	// Cached marks an analytic point that copied a lower-index twin's answer.
	Cached bool `json:"cached,omitempty"`
}

// Points expands the grid in deterministic order and assigns each point a
// seed split from the root stream, so a sweep's randomness is a pure
// function of (spec, grid order) no matter how many workers run it or how
// the scheduler interleaves them.
func (sp QuerySweepSpec) Points() ([]QueryPoint, error) {
	if sp.Base == nil {
		return nil, fmt.Errorf("solve: query sweep needs a base query")
	}
	for _, b := range sp.backends() {
		if _, err := NewSolver(b, Options{}); err != nil {
			return nil, err
		}
	}
	ws := sp.W
	if len(ws) == 0 {
		ws = []int{-1} // sentinel: keep base value
	}
	utils := sp.Util
	if len(utils) == 0 {
		utils = []float64{-1}
	}
	ratios := sp.TaskRatio
	if len(ratios) == 0 {
		ratios = []float64{-1}
	}
	cv2s := sp.OwnerCV2
	if len(cv2s) == 0 {
		cv2s = []float64{-1}
	}
	spreads := sp.Spread
	if len(spreads) == 0 {
		spreads = []float64{-1}
	}
	root := rng.NewStream(sp.Seed)
	var pts []QueryPoint
	for _, backend := range sp.backends() {
		for _, w := range ws {
			for _, util := range utils {
				for _, ratio := range ratios {
					for _, cv2 := range cv2s {
						for _, spread := range spreads {
							i := len(pts)
							q, err := sp.Base.withAxes(axisPoint{index: i, w: w, util: util, ratio: ratio, cv2: cv2, spread: spread, seed: root.SplitSeed(uint64(i))})
							if err != nil {
								var domain *PointDomainError
								if errors.As(err, &domain) && q != nil {
									// A domain failure is this point's answer, not
									// the grid's: record it and keep expanding.
									pts = append(pts, QueryPoint{Index: i, Backend: backend, Query: q, Err: err})
									continue
								}
								return nil, err
							}
							if err := q.Validate(); err != nil {
								return nil, fmt.Errorf("solve: grid point %d (%s): %w", i, backend, err)
							}
							pts = append(pts, QueryPoint{Index: i, Backend: backend, Query: q})
						}
					}
				}
			}
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("solve: sweep expands to an empty grid")
	}
	return pts, nil
}

// SweepQueries runs the expanded query grid on a context-cancellable worker
// pool and streams results over the returned channel in completion order.
// The channel is closed once every point has been answered or the context is
// cancelled; after cancellation no further results arrive. Errors on
// individual points are reported in their QueryResult and do not stop the
// sweep. The goroutine that closes the channel is one of the workers.
func SweepQueries(ctx context.Context, spec QuerySweepSpec) (<-chan QueryResult, error) {
	sr, pts, err := spec.expand()
	if err != nil {
		return nil, err
	}
	out := make(chan QueryResult, sr.workers)
	go func() {
		defer close(out)
		sr.run(ctx, pts, func(r QueryResult) {
			select {
			case <-ctx.Done():
			case out <- r.bound():
			}
		})
	}()
	return out, nil
}

// ForEach calls fn(i) for every i in [0, n) on up to workers goroutines, the
// caller's among them, each claiming the next index from one shared counter;
// fn writes its own output (typically slot i of a slice). workers <= 1 runs
// the calls in order on the caller's goroutine. Once ctx is done no index is
// claimed, so at most one more call per worker starts; ForEach returns after
// every started call has returned.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
}

// sweepRun answers batches of query points on one solver set: a grid sweep
// is one batch, a frontier run one batch per refinement level. The analytic
// backend is deterministic, so within a batch the points sharing an answer
// key are solved once, at the key's lowest index, and later points copy that
// answer; which points read cached depends on the points alone. With kept
// set, each batch's solved keys also answer the later batches' points.
// Distinct points share kernel tables through core.Tables.
type sweepRun struct {
	solvers map[string]Solver
	workers int
	kept    map[answerKey]*QueryResult // a solved result per answer key; nil keeps none
}

// newSweepRun builds one solver per backend name from the registry at the
// given protocol (nil: the default) and DES warmup. workers <= 0 means
// GOMAXPROCS.
func newSweepRun(backends []string, protocol *sim.Protocol, warmup, workers int) (*sweepRun, error) {
	var pr sim.Protocol
	if protocol != nil {
		pr = *protocol
	}
	sr := &sweepRun{solvers: make(map[string]Solver, len(backends)), workers: workers}
	if sr.workers <= 0 {
		sr.workers = runtime.GOMAXPROCS(0)
	}
	for _, b := range backends {
		s, err := NewSolver(b, Options{Protocol: pr, Warmup: warmup})
		if err != nil {
			return nil, err
		}
		sr.solvers[b] = s
	}
	return sr, nil
}

// expand builds the spec's grid points and the run that answers them.
func (sp QuerySweepSpec) expand() (*sweepRun, []QueryPoint, error) {
	pts, err := sp.Points()
	if err != nil {
		return nil, nil, err
	}
	sr, err := newSweepRun(sp.backends(), sp.Protocol, sp.Warmup, sp.Workers)
	return sr, pts, err
}

// run answers one batch and returns its results in point order, handing
// each to emit (when non-nil) from the worker that produced it. A point
// whose key an earlier batch solved copies that result at once; a point
// copying a leader in this batch waits for it, and the leader has a lower
// index, so it was claimed earlier and never waits itself. When ctx ends
// first, the slots of unclaimed points that copy no earlier batch stay zero.
func (sr *sweepRun) run(ctx context.Context, pts []QueryPoint, emit func(QueryResult)) []QueryResult {
	results := make([]QueryResult, len(pts))
	lead := make([]int, len(pts))            // index whose answer point i copies; i when solved, -1 when kept
	ready := make([]chan struct{}, len(pts)) // closed once results[j] holds leader j; nil if never copied
	first := make(map[answerKey]int, len(pts))
	for i, p := range pts {
		lead[i] = i
		if p.Err != nil || p.Backend != BackendAnalytic {
			continue
		}
		key, ok := answerCacheKey(BackendAnalytic, p.Query)
		if !ok {
			continue
		}
		if r, ok := sr.kept[key]; ok {
			lead[i], results[i] = -1, copyResult(*r, p)
			continue
		}
		j, seen := first[key]
		if !seen {
			first[key] = i
			continue
		}
		lead[i] = j
		if ready[j] == nil {
			ready[j] = make(chan struct{})
		}
	}
	ForEach(ctx, len(pts), sr.workers, func(i int) {
		switch j := lead[i]; {
		case j == i:
			results[i] = solveQueryPoint(ctx, sr.solvers[pts[i].Backend], pts[i])
		case j >= 0:
			<-ready[j]
			results[i] = copyResult(results[j], pts[i])
		}
		if ready[i] != nil {
			close(ready[i])
		}
		if emit != nil {
			emit(results[i])
		}
	})
	if sr.kept != nil {
		for key, j := range first {
			if results[j].Point.Query != nil {
				sr.kept[key] = &results[j]
			}
		}
	}
	return results
}

// copyResult is point p's copy of a leader's result: the leader's error, or
// its answer marked cached. The answer is the leader's as it stands; bound
// rebinds it for output, and a frontier reads only its verdict.
func copyResult(lead QueryResult, p QueryPoint) QueryResult {
	res := QueryResult{Point: p, Err: lead.Err, Error: lead.Error}
	if lead.Err == nil {
		res.Answer, res.Cached = lead.Answer, true
	}
	return res
}

// bound is the result as a sweep reports it: a cached answer rebound to the
// point's own scenario, with the leader's Elapsed scrubbed.
func (r QueryResult) bound() QueryResult {
	if r.Cached {
		r.Answer = cachedAnswer(r.Answer, r.Point.Query)
	}
	return r
}

// solveQueryPoint answers one grid point. Points carrying an expansion-time
// domain error are never solved.
func solveQueryPoint(ctx context.Context, solver Solver, p QueryPoint) QueryResult {
	res := QueryResult{Point: p}
	if p.Err != nil {
		res.Err, res.Error = p.Err, p.Err.Error()
		return res
	}
	a, err := solver.Answer(ctx, p.Query)
	if err != nil {
		res.Err, res.Error = err, err.Error()
		return res
	}
	res.Answer = a
	return res
}

// CollectQueries runs a query sweep to completion and returns its results
// in grid order. When cancellation cuts the sweep short it returns the
// points that completed, still in grid order, with ctx.Err().
func CollectQueries(ctx context.Context, spec QuerySweepSpec) ([]QueryResult, error) {
	sr, pts, err := spec.expand()
	if err != nil {
		return nil, err
	}
	results := sr.run(ctx, pts, nil)
	done := results[:0]
	for _, r := range results {
		if r.Point.Query != nil { // every expanded point has a Query; a zero slot never ran
			done = append(done, r.bound())
		}
	}
	return done, ctx.Err()
}

// ParseQuerySweep decodes a query sweep spec from JSON, rejecting unknown
// fields and validating the expanded grid.
func ParseQuerySweep(data []byte) (QuerySweepSpec, error) {
	var sp QuerySweepSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return QuerySweepSpec{}, fmt.Errorf("solve: bad query sweep spec: %w", err)
	}
	if _, err := sp.Points(); err != nil {
		return QuerySweepSpec{}, err
	}
	return sp, nil
}

// LoadQuerySweep reads and decodes a query sweep spec JSON file.
func LoadQuerySweep(path string) (QuerySweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return QuerySweepSpec{}, err
	}
	return ParseQuerySweep(data)
}

// LoadReportSweep reads a report grid file: the query sweep JSON shape with
// a bare scenario, not a query envelope, under "base". The result is a
// QuerySweepSpec over a ReportQuery base. It rejects unknown fields and
// validates the expanded grid.
func LoadReportSweep(path string) (QuerySweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return QuerySweepSpec{}, err
	}
	var raw querySweepJSON
	var base Scenario
	err = unmarshalStrict(data, &raw)
	if err == nil && len(raw.Base) > 0 {
		err = unmarshalStrict(raw.Base, &base)
	}
	if err != nil {
		return QuerySweepSpec{}, fmt.Errorf("solve: bad sweep spec: %w", err)
	}
	sp := raw.spec(ReportQuery{Scenario: base})
	if _, err := sp.Points(); err != nil {
		return QuerySweepSpec{}, err
	}
	return sp, nil
}
