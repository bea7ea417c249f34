package solve

import (
	"context"
	"fmt"
	"os"

	"feasim/internal/sim"
)

// SweepSpec declares a Report grid: a base scenario plus per-axis value
// lists. The grid is the cross product of every non-empty axis (an empty
// axis contributes the base value), crossed with the backend list. The spec
// is JSON-serializable so sweeps live in files next to scenarios. It is the
// ReportQuery special case of QuerySweepSpec, kept as the convenient form
// for the most common grid; both run on the same engine.
type SweepSpec struct {
	// Base is the scenario every grid point starts from.
	Base Scenario `json:"base"`

	// W varies the workstation count.
	W []int `json:"w,omitempty"`
	// Util varies the owner utilization (clears any base P).
	Util []float64 `json:"util,omitempty"`
	// TaskRatio varies the task ratio T/O by setting J = ratio·O·W.
	TaskRatio []float64 `json:"task_ratio,omitempty"`
	// OwnerCV2 varies the owner burst demand's squared coefficient of
	// variation (felt by the DES backend; the discrete model sees the mean).
	OwnerCV2 []float64 `json:"owner_cv2,omitempty"`

	// Backends lists the solvers to fan each point across; empty means
	// analytic only.
	Backends []string `json:"backends,omitempty"`

	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Seed is the root of the deterministic per-point seed split.
	Seed uint64 `json:"seed,omitempty"`
	// Protocol overrides the simulation backends' output-analysis protocol.
	Protocol *sim.Protocol `json:"protocol,omitempty"`
	// Warmup overrides the DES backend's warmup job count.
	Warmup int `json:"warmup,omitempty"`
}

// querySpec lowers the Report grid onto the generic query sweep.
func (sp SweepSpec) querySpec() QuerySweepSpec {
	return QuerySweepSpec{
		Base:      ReportQuery{Scenario: sp.Base},
		W:         sp.W,
		Util:      sp.Util,
		TaskRatio: sp.TaskRatio,
		OwnerCV2:  sp.OwnerCV2,
		Backends:  sp.Backends,
		Workers:   sp.Workers,
		Seed:      sp.Seed,
		Protocol:  sp.Protocol,
		Warmup:    sp.Warmup,
	}
}

// Point is one cell of the expanded grid.
type Point struct {
	// Index is the point's position in grid order; results stream in
	// completion order and can be re-sorted by it.
	Index    int      `json:"index"`
	Backend  string   `json:"backend"`
	Scenario Scenario `json:"scenario"`
}

// PointReport is one streamed sweep result: the point, its report or error,
// and whether the report was served from the analytic cache.
type PointReport struct {
	Point  Point  `json:"point"`
	Report Report `json:"report"`
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
func (sp SweepSpec) Points() ([]Point, error) {
	qpts, err := sp.querySpec().Points()
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(qpts))
	for i, qp := range qpts {
		pts[i] = Point{Index: qp.Index, Backend: qp.Backend, Scenario: qp.Query.(ReportQuery).Scenario}
	}
	return pts, nil
}

// toPointReport converts a ReportQuery sweep result back to the Report form.
func toPointReport(qr QueryResult) PointReport {
	res := PointReport{
		Point:  Point{Index: qr.Point.Index, Backend: qr.Point.Backend},
		Err:    qr.Err,
		Error:  qr.Error,
		Cached: qr.Cached,
	}
	if rq, ok := qr.Point.Query.(ReportQuery); ok {
		res.Point.Scenario = rq.Scenario
	}
	if ra, ok := qr.Answer.(ReportAnswer); ok {
		res.Report = ra.Report
	}
	return res
}

// Sweep runs the expanded grid on a context-cancellable worker pool and
// streams results over the returned channel in completion order. The
// channel is closed once every point has been solved or the context is
// cancelled; after cancellation no further results arrive. Errors on
// individual points are reported in their PointReport and do not stop the
// sweep.
func Sweep(ctx context.Context, spec SweepSpec) (<-chan PointReport, error) {
	return sweepChannel(ctx, spec.querySpec(), toPointReport)
}

// Collect runs a sweep to completion and returns its results in grid order.
// It returns ctx.Err() when the sweep was cut short by cancellation, along
// with the points that completed before the cut, still in grid order.
func Collect(ctx context.Context, spec SweepSpec) ([]PointReport, error) {
	res, err := CollectQueries(ctx, spec.querySpec())
	var out []PointReport
	for _, r := range res {
		out = append(out, toPointReport(r))
	}
	return out, err
}

// ParseSweep decodes a sweep spec from JSON, rejecting unknown fields.
func ParseSweep(data []byte) (SweepSpec, error) {
	var sp SweepSpec
	if err := unmarshalStrict(data, &sp); err != nil {
		return SweepSpec{}, fmt.Errorf("solve: bad sweep spec: %w", err)
	}
	if _, err := sp.Points(); err != nil {
		return SweepSpec{}, err
	}
	return sp, nil
}

// LoadSweep reads and decodes a sweep spec JSON file.
func LoadSweep(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, err
	}
	return ParseSweep(data)
}
