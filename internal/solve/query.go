package solve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"feasim/internal/core"
)

// The paper asks more than one kind of question. PR 1's Scenario/Report pair
// covers only "evaluate this operating point"; the Query/Answer model types
// the whole family — the Section 3 metrics, the conclusions-table threshold
// search, cluster right-sizing, deadline quantiles, and memory-bounded
// scaleup — behind one JSON envelope {"kind": "...", ...} and one method,
// Solver.Answer. Backends advertise what they can answer via Capabilities,
// and refuse the rest with an UnsupportedError (errors.Is-able against
// ErrUnsupported), so callers can discover capabilities instead of
// hard-coding them.

// Query kinds, the values of the envelope's "kind" field.
const (
	KindReport       = "report"
	KindThreshold    = "threshold"
	KindPartition    = "partition"
	KindDistribution = "distribution"
	KindScaled       = "scaled"
	KindTimeline     = "timeline"
)

// QueryKinds lists every query kind in canonical order.
func QueryKinds() []string {
	return []string{KindReport, KindThreshold, KindPartition, KindDistribution, KindScaled, KindTimeline}
}

// ErrUnsupported is the sentinel for a (backend, query kind) pair the backend
// cannot answer. Backends return an *UnsupportedError wrapping it, so
// errors.Is(err, ErrUnsupported) detects the condition and the error text
// names the pair.
var ErrUnsupported = errors.New("query kind unsupported by backend")

// UnsupportedError reports which backend refused which query kind. Detail,
// when set, names the query *feature* the backend cannot handle (e.g. a
// heterogeneous fleet) rather than the kind itself.
type UnsupportedError struct {
	Backend string
	Kind    string
	Detail  string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("solve: %s backend does not answer %q queries with %s",
			e.Backend, e.Kind, e.Detail)
	}
	return fmt.Sprintf("solve: %s backend does not answer %q queries (supports %v)",
		e.Backend, e.Kind, capabilitiesOf(e.Backend))
}

// Is makes errors.Is(err, ErrUnsupported) succeed.
func (e *UnsupportedError) Is(target error) bool { return target == ErrUnsupported }

func unsupported(backend, kind string) error {
	return &UnsupportedError{Backend: backend, Kind: kind}
}

// refuseHeterogeneous is the typed refusal for a backend that cannot handle
// heterogeneous (model-form) fleets.
func refuseHeterogeneous(backend, kind string) error {
	return &UnsupportedError{Backend: backend, Kind: kind, Detail: "heterogeneous fleets"}
}

// capabilitiesOf returns the capability list for a backend name, or nil for
// an unknown backend (error paths only, so construction cost is irrelevant).
func capabilitiesOf(name string) []string {
	s, err := NewSolver(name, Options{})
	if err != nil {
		return nil
	}
	return s.Capabilities()
}

// Query is one typed question to a Solver, serialized through the JSON
// envelope {"kind": "...", ...}. The concrete types are ReportQuery,
// ThresholdQuery, PartitionQuery, DistributionQuery and ScaledQuery; the
// interface is sealed (the sweep engine needs axis expansion and dedup
// hooks), so every query a Solver sees round-trips through ParseQuery.
type Query interface {
	// Kind is the envelope discriminator ("report", "threshold", ...).
	Kind() string
	// Validate checks the query for internal consistency.
	Validate() error

	// withAxes applies sweep axis values and the point seed, and dedupKey
	// feeds the sweep engine's analytic cache; both seal the interface.
	withAxes(ax axisPoint) (Query, error)
	dedupKey() (cacheKey, bool)
}

// ---- report ----

// ReportQuery asks for the full Section 3 report at one operating point —
// PR 1's Solve behavior as a query kind. Every backend answers it.
type ReportQuery struct {
	Scenario Scenario `json:"scenario"`
}

// Kind implements Query.
func (ReportQuery) Kind() string { return KindReport }

// Validate implements Query.
func (q ReportQuery) Validate() error { return q.Scenario.Validate() }

// ---- threshold ----

// ThresholdQuery asks for the minimum integer task ratio T/O at which a job
// on W workstations (owner demand O, utilization Util) reaches the target
// weighted efficiency — the paper's conclusions-table search. The analytic
// backend answers it with the exact solver; the simulation backends answer
// it *empirically*, by a monotone bisection over the ratio that simulates
// each probe point (weighted efficiency is nondecreasing in the ratio).
// With a Stations template the query searches a *heterogeneous* fleet:
// the template (model-form per-station p/util/speed) is tiled cyclically
// to W stations, Util must stay zero, and the exact backend refuses it.
type ThresholdQuery struct {
	W         int     `json:"w"`
	O         float64 `json:"o"`
	Util      float64 `json:"util"`
	TargetEff float64 `json:"target_eff"`
	// Stations optionally makes the search heterogeneous: a model-form
	// station template tiled to each probed fleet.
	Stations []StationSpec `json:"stations,omitempty"`
	// MaxRatio caps the search; 0 means the backend default (DefaultMaxRatio
	// analytic, DefaultSimMaxRatio for the simulation backends — each sim
	// probe costs a full run, so the sim cap is deliberately lower).
	MaxRatio int `json:"max_ratio,omitempty"`
	// Seed drives the simulation backends' probes (split per probed ratio).
	Seed uint64 `json:"seed,omitempty"`
}

// Search caps used when ThresholdQuery.MaxRatio is zero.
const (
	DefaultMaxRatio    = 1 << 20
	DefaultSimMaxRatio = 1 << 12
)

// Kind implements Query.
func (ThresholdQuery) Kind() string { return KindThreshold }

// Validate implements Query.
func (q ThresholdQuery) Validate() error {
	switch {
	case q.W < 1:
		return fmt.Errorf("solve: threshold query needs w >= 1, got %d", q.W)
	case !(q.O > 0):
		return fmt.Errorf("solve: threshold query needs o > 0, got %v", q.O)
	case q.Util < 0 || q.Util >= 1:
		return fmt.Errorf("solve: threshold query needs util in [0,1), got %v", q.Util)
	case !(q.TargetEff > 0) || q.TargetEff > 1:
		return fmt.Errorf("solve: threshold query needs target_eff in (0,1], got %v", q.TargetEff)
	case q.MaxRatio < 0:
		return fmt.Errorf("solve: threshold query needs max_ratio >= 0, got %d", q.MaxRatio)
	case len(q.Stations) > 0 && q.Util != 0:
		return fmt.Errorf("solve: threshold query with a station template must not set aggregate util")
	}
	return validateStationTemplate(q.Stations, q.O)
}

// maxRatio resolves the search cap against the backend default.
func (q ThresholdQuery) maxRatio(def int) int {
	if q.MaxRatio > 0 {
		return q.MaxRatio
	}
	return def
}

// search lowers the query onto the core threshold search: the station
// template, or the aggregate form's one-station template, tiled to W.
func (q ThresholdQuery) search() (core.ThresholdQuery, error) {
	template, err := stationTemplate(q.Stations, q.O, q.Util)
	if err != nil {
		return core.ThresholdQuery{}, err
	}
	stations, err := core.TileFleet(template, q.W)
	if err != nil {
		return core.ThresholdQuery{}, err
	}
	return core.ThresholdQuery{Stations: stations, O: q.O, TargetWeightedEff: q.TargetEff}, nil
}

// ---- partition ----

// PartitionQuery right-sizes a cluster for a fixed job: the largest W in
// [1, MaxW] at which a job of total demand J still meets the target weighted
// efficiency. The analytic backend answers with the exact right-sizing
// search (core.MaxWorkstations); the DES backend answers empirically by a
// monotone bisection over W (weighted efficiency is nonincreasing in W at
// fixed J). With a Stations template the search is heterogeneous: the
// template is tiled to each probed W, and Util must stay zero.
type PartitionQuery struct {
	J         float64 `json:"j"`
	O         float64 `json:"o"`
	Util      float64 `json:"util"`
	TargetEff float64 `json:"target_eff"`
	MaxW      int     `json:"max_w"`
	// Stations optionally makes the search heterogeneous (model-form
	// template, tiled to each probed fleet size).
	Stations []StationSpec `json:"stations,omitempty"`
	// Seed drives the simulation backends' probes (split per probed W).
	Seed uint64 `json:"seed,omitempty"`
}

// Kind implements Query.
func (PartitionQuery) Kind() string { return KindPartition }

// Validate implements Query.
func (q PartitionQuery) Validate() error {
	switch {
	case !(q.J > 0):
		return fmt.Errorf("solve: partition query needs j > 0, got %v", q.J)
	case q.Util > 0 && !(q.O > 0):
		return fmt.Errorf("solve: partition query with util > 0 needs o > 0, got %v", q.O)
	case q.O < 0:
		return fmt.Errorf("solve: partition query needs o >= 0, got %v", q.O)
	case q.Util < 0 || q.Util >= 1:
		return fmt.Errorf("solve: partition query needs util in [0,1), got %v", q.Util)
	case !(q.TargetEff > 0) || q.TargetEff > 1:
		return fmt.Errorf("solve: partition query needs target_eff in (0,1], got %v", q.TargetEff)
	case q.MaxW < 1:
		return fmt.Errorf("solve: partition query needs max_w >= 1, got %d", q.MaxW)
	case len(q.Stations) > 0 && q.Util != 0:
		return fmt.Errorf("solve: partition query with a station template must not set aggregate util")
	case len(q.Stations) > 0 && !(q.O > 0):
		return fmt.Errorf("solve: partition query with a station template needs o > 0, got %v", q.O)
	}
	return validateStationTemplate(q.Stations, q.O)
}

// scenario is the report scenario at fleet size w: the aggregate form, or
// the station template tiled to w stations.
func (q PartitionQuery) scenario(name string, w int) (Scenario, error) {
	sc := Scenario{Name: name, J: q.J, W: w, O: q.O, Util: q.Util, TargetEff: q.TargetEff}
	if len(q.Stations) > 0 {
		tiled, err := tiledSpecs(q.Stations, q.O, w)
		if err != nil {
			return Scenario{}, err
		}
		sc.Stations = tiled
	}
	return sc, nil
}

// ---- distribution ----

// DistributionQuery asks for the job completion-time distribution at one
// operating point: quantiles and deadline probabilities. The analytic
// backend answers exactly from the model's discrete distribution; the
// simulation backends answer empirically from their batch samples — which is
// what makes deadline tails measurable for workloads the discrete model
// cannot express (explicit stations, arbitrary distributions).
type DistributionQuery struct {
	Scenario Scenario `json:"scenario"`
	// Quantiles lists probabilities in (0,1); empty means DefaultQuantiles.
	Quantiles []float64 `json:"quantiles,omitempty"`
	// Deadlines lists times t for which P(job time <= t) is wanted.
	Deadlines []float64 `json:"deadlines,omitempty"`
}

// DefaultQuantiles is used when DistributionQuery.Quantiles is empty.
func DefaultQuantiles() []float64 { return []float64{0.5, 0.9, 0.95, 0.99} }

// Kind implements Query.
func (DistributionQuery) Kind() string { return KindDistribution }

// Validate implements Query.
func (q DistributionQuery) Validate() error {
	if err := q.Scenario.Validate(); err != nil {
		return err
	}
	for _, p := range q.Quantiles {
		if p <= 0 || p >= 1 {
			return fmt.Errorf("solve: distribution quantiles must be in (0,1), got %v", p)
		}
	}
	for _, d := range q.Deadlines {
		if d < 0 {
			return fmt.Errorf("solve: distribution deadlines must be >= 0, got %v", d)
		}
	}
	return nil
}

// quantiles resolves the default.
func (q DistributionQuery) quantiles() []float64 {
	if len(q.Quantiles) == 0 {
		return DefaultQuantiles()
	}
	return q.Quantiles
}

// ---- scaled ----

// ScaledQuery asks for the memory-bounded scaleup curve (Section 3.2):
// holding the per-task demand T fixed (J = T·W), the job time at each system
// size in Ws, with increases against the dedicated and W=1 baselines.
// Analytic only — the curve is a pure model artifact.
// With a Stations template the curve is heterogeneous: the template is
// tiled to each system size (Util must stay zero).
type ScaledQuery struct {
	T    float64 `json:"t"`
	O    float64 `json:"o"`
	Util float64 `json:"util"`
	Ws   []int   `json:"ws"`
	// Stations optionally makes the curve heterogeneous (model-form
	// template, tiled to each system size).
	Stations []StationSpec `json:"stations,omitempty"`
}

// Kind implements Query.
func (ScaledQuery) Kind() string { return KindScaled }

// Validate implements Query.
func (q ScaledQuery) Validate() error {
	switch {
	case !(q.T > 0):
		return fmt.Errorf("solve: scaled query needs t > 0, got %v", q.T)
	case q.Util > 0 && !(q.O > 0):
		return fmt.Errorf("solve: scaled query with util > 0 needs o > 0, got %v", q.O)
	case q.O < 0:
		return fmt.Errorf("solve: scaled query needs o >= 0, got %v", q.O)
	case q.Util < 0 || q.Util >= 1:
		return fmt.Errorf("solve: scaled query needs util in [0,1), got %v", q.Util)
	case len(q.Ws) == 0:
		return fmt.Errorf("solve: scaled query needs at least one system size")
	case len(q.Stations) > 0 && q.Util != 0:
		return fmt.Errorf("solve: scaled query with a station template must not set aggregate util")
	case len(q.Stations) > 0 && !(q.O > 0):
		return fmt.Errorf("solve: scaled query with a station template needs o > 0, got %v", q.O)
	}
	for _, w := range q.Ws {
		if w < 1 {
			return fmt.Errorf("solve: scaled query system sizes must be >= 1, got %d", w)
		}
	}
	return validateStationTemplate(q.Stations, q.O)
}

// ---- timeline ----

// TimelineQuery asks how feasibility evolves over a workday: the scenario
// must carry a schedule (repeating phases) or trace (recorded timeline),
// and the answer is an epoch series — one efficiency/E[completion] report
// per launch offset. The analytic backend answers with the quasi-static
// approximation (each epoch solved by the stationary kernel and spliced
// across phase boundaries); the DES backend replays each launch offset over
// phased stations.
type TimelineQuery struct {
	Scenario Scenario `json:"scenario"`
	// Start is the first launch offset within the cycle.
	Start float64 `json:"start,omitempty"`
	// Horizon is the span of launch offsets covered; 0 means one full cycle
	// (schedule) or the recorded length (trace).
	Horizon float64 `json:"horizon,omitempty"`
	// Epochs is the number of evenly spaced launch offsets; 0 means one at
	// Start plus one at every phase boundary within the horizon.
	Epochs int `json:"epochs,omitempty"`
	// Samples is the DES backend's replications per epoch; 0 means
	// DefaultTimelineSamples. The analytic backend ignores it.
	Samples int `json:"samples,omitempty"`
}

// DefaultTimelineSamples is the DES replication count per epoch when
// TimelineQuery.Samples is zero.
const DefaultTimelineSamples = 200

// Kind implements Query.
func (TimelineQuery) Kind() string { return KindTimeline }

// Validate implements Query.
func (q TimelineQuery) Validate() error {
	if err := q.Scenario.Validate(); err != nil {
		return err
	}
	switch {
	case !q.Scenario.Phased():
		return fmt.Errorf("solve: timeline query needs a scenario with a schedule or trace")
	case q.Start < 0:
		return fmt.Errorf("solve: timeline query needs start >= 0, got %v", q.Start)
	case q.Horizon < 0:
		return fmt.Errorf("solve: timeline query needs horizon >= 0, got %v", q.Horizon)
	case q.Epochs < 0:
		return fmt.Errorf("solve: timeline query needs epochs >= 0, got %d", q.Epochs)
	case q.Samples < 0:
		return fmt.Errorf("solve: timeline query needs samples >= 0, got %d", q.Samples)
	}
	return nil
}

// samples resolves the DES replication default.
func (q TimelineQuery) samples() int {
	if q.Samples > 0 {
		return q.Samples
	}
	return DefaultTimelineSamples
}

// ---- envelope ----

// queryEnvelope is the wire form: the concrete query's fields plus "kind".
// Each variant embeds the query so the JSON fields are promoted and strict
// decoding still rejects unknown fields.
type reportEnvelope struct {
	Kind string `json:"kind"`
	ReportQuery
}
type thresholdEnvelope struct {
	Kind string `json:"kind"`
	ThresholdQuery
}
type partitionEnvelope struct {
	Kind string `json:"kind"`
	PartitionQuery
}
type distributionEnvelope struct {
	Kind string `json:"kind"`
	DistributionQuery
}
type scaledEnvelope struct {
	Kind string `json:"kind"`
	ScaledQuery
}
type timelineEnvelope struct {
	Kind string `json:"kind"`
	TimelineQuery
}

// MarshalQuery serializes a query into its JSON envelope, "kind" first.
func MarshalQuery(q Query) ([]byte, error) {
	switch t := q.(type) {
	case ReportQuery:
		return json.Marshal(reportEnvelope{KindReport, t})
	case ThresholdQuery:
		return json.Marshal(thresholdEnvelope{KindThreshold, t})
	case PartitionQuery:
		return json.Marshal(partitionEnvelope{KindPartition, t})
	case DistributionQuery:
		return json.Marshal(distributionEnvelope{KindDistribution, t})
	case ScaledQuery:
		return json.Marshal(scaledEnvelope{KindScaled, t})
	case TimelineQuery:
		return json.Marshal(timelineEnvelope{KindTimeline, t})
	default:
		return nil, fmt.Errorf("solve: cannot marshal query of type %T", q)
	}
}

// decodeQuery parses the envelope without validating the result (the sweep
// engine completes partial base queries from its axes before validating).
func decodeQuery(data []byte) (Query, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("solve: bad query envelope: %w", err)
	}
	var (
		q   Query
		err error
	)
	switch probe.Kind {
	case KindReport:
		var env reportEnvelope
		err = unmarshalStrict(data, &env)
		q = env.ReportQuery
	case KindThreshold:
		var env thresholdEnvelope
		err = unmarshalStrict(data, &env)
		q = env.ThresholdQuery
	case KindPartition:
		var env partitionEnvelope
		err = unmarshalStrict(data, &env)
		q = env.PartitionQuery
	case KindDistribution:
		var env distributionEnvelope
		err = unmarshalStrict(data, &env)
		q = env.DistributionQuery
	case KindScaled:
		var env scaledEnvelope
		err = unmarshalStrict(data, &env)
		q = env.ScaledQuery
	case KindTimeline:
		var env timelineEnvelope
		err = unmarshalStrict(data, &env)
		q = env.TimelineQuery
	case "":
		return nil, fmt.Errorf(`solve: query envelope needs a "kind" field (want one of %v)`, QueryKinds())
	default:
		return nil, fmt.Errorf("solve: unknown query kind %q (want one of %v)", probe.Kind, QueryKinds())
	}
	if err != nil {
		return nil, fmt.Errorf("solve: bad %q query: %w", probe.Kind, err)
	}
	return q, nil
}

// ParseQuery decodes a query from its JSON envelope, rejecting unknown
// kinds and unknown fields so typos in hand-written files fail loudly.
func ParseQuery(data []byte) (Query, error) {
	q, err := decodeQuery(data)
	if err != nil {
		return nil, err
	}
	return q, q.Validate()
}

// LoadQuery reads and decodes a query envelope JSON file.
func LoadQuery(path string) (Query, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseQuery(data)
}
