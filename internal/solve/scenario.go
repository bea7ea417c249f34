// Package solve is the unified entry point to the feasibility study: a
// declarative, JSON-serializable Scenario describes the question ("this job,
// this cluster, these owners — is stealing the idle cycles worth it?"), a
// Solver answers it with one of the repository's three methods (exact
// analysis, discrete-time simulation, discrete-event simulation), and the
// Sweep engine fans a grid of scenarios across a context-cancellable worker
// pool.
//
// The three backends adapt the existing layers:
//
//   - "analytic" asks every question of one core.Fleet — the scenario's
//     (Scenario.Fleet) or a query's station template — through
//     core.Analyze/Assess and the core searches: the paper's equations
//     (1)-(8) and their per-station generalization.
//   - "exact" wraps sim.Exact under the batch-means Protocol — the paper's
//     CSIM validation study.
//   - "des" wraps sim.General — the engine that drops the model's
//     simplifying assumptions (wall-clock owner think times, arbitrary
//     distributions, heterogeneous stations).
//
// All three answer the same Scenario, so callers can cross-validate methods
// or trade precision for speed without restating the workload.
package solve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"feasim/internal/core"
	"feasim/internal/rng"
	"feasim/internal/sim"
)

// StationSpec declares one (or Count identical) workstation owner workloads,
// in one of two forms:
//
//   - distribution form: OwnerThink/OwnerDemand rng.Parse spec strings
//     (e.g. "exp:90" or "hyper:0.1,55,5"), understood only by the DES
//     backend — the discrete model has no notion of per-station
//     distributions;
//   - model form: per-station availability (P or Util) and Speed inside the
//     paper's model, making the scenario *heterogeneous* — answered
//     analytically through the fleet kernel and cross-checked by DES.
//
// A fleet must use one form throughout; mixing is rejected.
type StationSpec struct {
	// OwnerThink is the wall-clock think time between owner bursts
	// (distribution form).
	OwnerThink string `json:"owner_think,omitempty"`
	// OwnerDemand is the owner burst service demand (distribution form).
	OwnerDemand string `json:"owner_demand,omitempty"`

	// P is this station's owner request probability per unit of task
	// progress (model form). Exactly one of P and Util may be set.
	P float64 `json:"p,omitempty"`
	// Util is this station's owner utilization in [0,1); P is derived via
	// equation (8) from the scenario's aggregate O (model form).
	Util float64 `json:"util,omitempty"`
	// Speed scales task execution on this station: effective per-task
	// demand is (J/W)/Speed. Zero means the reference rate 1 (model form).
	Speed float64 `json:"speed,omitempty"`

	// Count repeats this spec; 0 means 1.
	Count int `json:"count,omitempty"`
}

// modelForm reports whether the spec uses per-station model parameters.
func (ss StationSpec) modelForm() bool { return ss.P != 0 || ss.Util != 0 || ss.Speed != 0 }

// distForm reports whether the spec uses distribution strings.
func (ss StationSpec) distForm() bool { return ss.OwnerThink != "" || ss.OwnerDemand != "" }

// resolveP returns the station's request probability, deriving it from a
// per-station utilization via equation (8) when needed.
func (ss StationSpec) resolveP(o float64) (float64, error) {
	if ss.Util != 0 {
		if ss.Util < 0 || ss.Util >= 1 {
			return 0, fmt.Errorf("solve: station util must be in [0,1), got %v", ss.Util)
		}
		if !(o > 0) {
			return 0, fmt.Errorf("solve: station util needs aggregate owner demand o > 0")
		}
		return ss.Util / (o * (1 - ss.Util)), nil
	}
	if ss.P < 0 || ss.P >= 1 {
		return 0, fmt.Errorf("solve: station p must be in [0,1), got %v", ss.P)
	}
	return ss.P, nil
}

func (ss StationSpec) count() int {
	if ss.Count < 1 {
		return 1
	}
	return ss.Count
}

// configs expands the spec into per-station simulator configurations.
func (ss StationSpec) configs() ([]sim.StationConfig, error) {
	think, err := rng.Parse(ss.OwnerThink)
	if err != nil {
		return nil, fmt.Errorf("solve: station owner_think: %w", err)
	}
	demand, err := rng.Parse(ss.OwnerDemand)
	if err != nil {
		return nil, fmt.Errorf("solve: station owner_demand: %w", err)
	}
	cfgs := make([]sim.StationConfig, ss.count())
	for i := range cfgs {
		cfgs[i] = sim.StationConfig{OwnerThink: think, OwnerDemand: demand}
	}
	return cfgs, nil
}

// Scenario is the declarative input shared by every Solver. It describes the
// workload either in the paper's aggregate terms — total job demand J on W
// workstations with owner bursts O at utilization Util (or request
// probability P) — or, for the DES backend, as explicit per-station
// distributions. The zero value is invalid; every field is JSON-stable so
// scenarios round-trip through files untouched.
type Scenario struct {
	// Name labels the scenario in reports and sweep output.
	Name string `json:"name,omitempty"`

	// J is the total job demand in time units (the paper's J).
	J float64 `json:"j,omitempty"`
	// W is the number of workstations (= number of tasks).
	W int `json:"w,omitempty"`
	// O is the mean owner burst demand in time units.
	O float64 `json:"o,omitempty"`
	// Util is the owner utilization in [0,1); P is derived via equation (8).
	// Exactly one of Util and P should be set (both zero means dedicated).
	Util float64 `json:"util,omitempty"`
	// P is the owner request probability per unit of task progress.
	P float64 `json:"p,omitempty"`

	// OwnerCV2 is the squared coefficient of variation of the owner burst
	// demand. Zero or 1 keeps the paper's deterministic bursts; above 1 the
	// DES backend draws bursts from a balanced hyperexponential with mean O.
	// The analytic and exact backends see only the mean, so they are
	// unaffected — which is exactly what a variance ablation measures.
	OwnerCV2 float64 `json:"owner_cv2,omitempty"`

	// Schedule, when non-empty, replaces the stationary owner description
	// with a repeating owner-utilization timeline (a workday: phases of
	// Duration at Util, lowered onto a cyclic timeline.Profile).
	// Phased scenarios are answerable only by timeline queries; Util and P
	// must stay zero — the phases define the owner activity.
	Schedule []PhaseSpec `json:"schedule,omitempty"`
	// Trace is a recorded, non-repeating availability timeline; after the
	// last phase its final utilization holds. Mutually exclusive with
	// Schedule.
	Trace []PhaseSpec `json:"trace,omitempty"`

	// Stations, when non-empty, replaces the aggregate owner description
	// with explicit per-station distributions (DES backend only).
	Stations []StationSpec `json:"stations,omitempty"`
	// TaskDemand optionally overrides the per-task demand distribution as an
	// rng.Parse spec; empty means the paper's Deterministic{J/W}.
	TaskDemand string `json:"task_demand,omitempty"`

	// Deadline, when positive, asks for P(job completes within Deadline).
	Deadline float64 `json:"deadline,omitempty"`
	// TargetEff, when positive, asks for a feasibility verdict against this
	// weighted-efficiency target (the paper's bar is 0.8).
	TargetEff float64 `json:"target_eff,omitempty"`

	// Seed drives all stochastic backends. The sweep engine overrides it
	// per grid point by splitting a root rng.Stream.
	Seed uint64 `json:"seed,omitempty"`
}

// PhaseSpec is one phase of a scenario's owner-utilization timeline: the
// owners run at Util for Duration time units.
type PhaseSpec struct {
	// Name labels the phase in answers ("day", "night", ...).
	Name string `json:"name,omitempty"`
	// Duration is the phase length in time units; must be positive.
	Duration float64 `json:"duration"`
	// Util is the owner utilization during the phase, in [0,1).
	Util float64 `json:"util"`
}

// Explicit reports whether the scenario uses explicit per-station
// distributions instead of the aggregate J/W/O/util description.
// Heterogeneous (model-form) fleets are not explicit: they stay inside the
// discrete model, generalized per station.
func (s Scenario) Explicit() bool { return len(s.Stations) > 0 && !s.Heterogeneous() }

// Heterogeneous reports whether the scenario is a model-form fleet: any
// station carrying per-station p/util/speed. Mixed-form fleets claim
// heterogeneity here and are rejected by Validate.
func (s Scenario) Heterogeneous() bool {
	for _, ss := range s.Stations {
		if ss.modelForm() {
			return true
		}
	}
	return false
}

// Phased reports whether the scenario carries a non-stationary owner
// timeline (schedule or trace).
func (s Scenario) Phased() bool { return len(s.Schedule) > 0 || len(s.Trace) > 0 }

// phases returns the timeline phases and whether they repeat.
func (s Scenario) phases() ([]PhaseSpec, bool) {
	if len(s.Schedule) > 0 {
		return s.Schedule, true
	}
	return s.Trace, false
}

// validatePhased checks the timeline form: the phases define the owner
// activity over time, so every stationary owner description (util/p,
// explicit stations) and non-aggregate workload form is rejected loudly.
func (s Scenario) validatePhased() error {
	switch {
	case len(s.Schedule) > 0 && len(s.Trace) > 0:
		return fmt.Errorf("solve: scenario %q sets both schedule and trace; pick one timeline form", s.Name)
	case len(s.Stations) > 0:
		return fmt.Errorf("solve: phased scenario %q also declares per-station workloads; the schedule defines the owner workload", s.Name)
	case s.Util != 0 || s.P != 0:
		return fmt.Errorf("solve: phased scenario %q also sets util/p; the phases define the owner activity", s.Name)
	case s.TaskDemand != "":
		return fmt.Errorf("solve: phased scenario %q needs the aggregate j/w form; task_demand is not supported", s.Name)
	case s.OwnerCV2 != 0:
		return fmt.Errorf("solve: phased scenario %q sets owner_cv2; phased owners use the paper's deterministic bursts", s.Name)
	case s.Deadline != 0:
		return fmt.Errorf("solve: phased scenario %q sets deadline; timeline answers report expected completion only", s.Name)
	case !(s.J > 0):
		return fmt.Errorf("solve: phased scenario needs job demand j > 0, got %v", s.J)
	case s.W < 1:
		return fmt.Errorf("solve: phased scenario needs w >= 1, got %d", s.W)
	case !(s.O > 0):
		return fmt.Errorf("solve: owner burst demand o must be positive, got %v", s.O)
	}
	phases, _ := s.phases()
	for i, ph := range phases {
		if !(ph.Duration > 0) {
			return fmt.Errorf("solve: scenario %q phase %d (%s): duration must be positive, got %v", s.Name, i, ph.Name, ph.Duration)
		}
		if ph.Util < 0 || ph.Util >= 1 {
			return fmt.Errorf("solve: scenario %q phase %d (%s): util must be in [0,1), got %v", s.Name, i, ph.Name, ph.Util)
		}
	}
	return nil
}

// validateHeterogeneous checks the model-form fleet: per-station p/util/
// speed generalize the aggregate owner description, so the fleet still
// needs the aggregate J and O — those are shared — while the aggregate
// availability fields (util/p) must stay zero, and every station must use
// the model form consistently.
func (s Scenario) validateHeterogeneous() error {
	switch {
	case s.Util != 0 || s.P != 0:
		return fmt.Errorf("solve: heterogeneous scenario %q also sets aggregate util/p; the stations define availability", s.Name)
	case s.TaskDemand != "":
		return fmt.Errorf("solve: heterogeneous scenario %q sets task_demand; the model form uses the deterministic J/W task demand", s.Name)
	case !(s.O > 0):
		return fmt.Errorf("solve: heterogeneous scenario %q needs aggregate owner demand o > 0", s.Name)
	case !(s.J > 0):
		return fmt.Errorf("solve: heterogeneous scenario %q needs job demand j > 0", s.Name)
	}
	total := 0
	for i, ss := range s.Stations {
		switch {
		case ss.distForm():
			return fmt.Errorf("solve: station %d mixes distribution specs with per-station p/util/speed; a fleet must use one form", i)
		case ss.P != 0 && ss.Util != 0:
			return fmt.Errorf("solve: station %d sets both p and util; pick one", i)
		case ss.Count < 0:
			return fmt.Errorf("solve: station %d count must be >= 0, got %d", i, ss.Count)
		}
		if _, err := ss.resolveP(s.O); err != nil {
			return fmt.Errorf("solve: station %d: %w", i, err)
		}
		if ss.Speed < 0 || math.IsNaN(ss.Speed) || math.IsInf(ss.Speed, 0) {
			return fmt.Errorf("solve: station %d speed must be >= 0 and finite, got %v", i, ss.Speed)
		}
		total += ss.count()
	}
	if s.W != 0 && s.W != total {
		return fmt.Errorf("solve: w=%d disagrees with %d per-station workstations", s.W, total)
	}
	// The fleet kernel enforces the remaining model-range rules (effective
	// per-station demand >= 1, etc.).
	f, err := s.Fleet()
	if err != nil {
		return err
	}
	return f.Validate()
}

// Fleet lowers the scenario onto the core fleet the analytic backend asks:
// a heterogeneous scenario's stations, or the aggregate form's one-group
// fleet (Params().Fleet()).
func (s Scenario) Fleet() (core.Fleet, error) {
	if !s.Heterogeneous() {
		p, err := s.Params()
		if err != nil {
			return core.Fleet{}, err
		}
		return p.Fleet(), nil
	}
	f := core.Fleet{J: s.J, O: s.O}
	for i, ss := range s.Stations {
		p, err := ss.resolveP(s.O)
		if err != nil {
			return core.Fleet{}, fmt.Errorf("solve: station %d: %w", i, err)
		}
		f.Stations = append(f.Stations, core.FleetStation{P: p, Speed: ss.Speed, Count: ss.count()})
	}
	return f, nil
}

// fleetSignature renders the canonical station multiset compactly — the
// heterogeneity identity that rides in dedupKey.extra, so the answer
// cache, sweep dedup and RouteHash all fold it in without new plumbing.
// Stations that resolve to the same (p, speed) multiset share a signature
// regardless of declaration order, split groups, or the p-vs-util spelling.
func fleetSignature(f core.Fleet) string {
	var b strings.Builder
	b.WriteString("fleet:")
	for _, g := range f.Canonical() {
		b.WriteString(strconv.FormatUint(math.Float64bits(g.P), 16))
		b.WriteByte('~')
		b.WriteString(strconv.FormatUint(math.Float64bits(g.Speed), 16))
		b.WriteByte('~')
		b.WriteString(strconv.Itoa(g.Count))
		b.WriteByte(';')
	}
	return b.String()
}

// stationTemplateSignature is fleetSignature for a raw station template
// (threshold/partition/scaled queries), where the fleet size varies with
// the search: identity is the normalized template itself.
func stationTemplateSignature(specs []StationSpec, o float64) (string, error) {
	if len(specs) == 0 {
		return "", nil
	}
	var b strings.Builder
	b.WriteString("tpl:")
	for i, ss := range specs {
		p, err := ss.resolveP(o)
		if err != nil {
			return "", fmt.Errorf("solve: station %d: %w", i, err)
		}
		speed := ss.Speed
		if speed == 0 {
			speed = 1
		}
		b.WriteString(strconv.FormatUint(math.Float64bits(p), 16))
		b.WriteByte('~')
		b.WriteString(strconv.FormatUint(math.Float64bits(speed), 16))
		b.WriteByte('~')
		b.WriteString(strconv.Itoa(ss.count()))
		b.WriteByte(';')
	}
	return b.String(), nil
}

// validateStationTemplate checks a threshold/partition/scaled station
// template: every spec must use the model form exclusively, with resolvable
// availability and a sane speed. An empty template is valid (homogeneous
// search).
func validateStationTemplate(specs []StationSpec, o float64) error {
	for i, ss := range specs {
		switch {
		case ss.distForm():
			return fmt.Errorf("solve: template station %d uses distribution specs; station templates need the model form (p/util/speed)", i)
		case !ss.modelForm():
			return fmt.Errorf("solve: template station %d is empty; station templates need per-station p, util or speed", i)
		case ss.P != 0 && ss.Util != 0:
			return fmt.Errorf("solve: template station %d sets both p and util; pick one", i)
		case ss.Count < 0:
			return fmt.Errorf("solve: template station %d count must be >= 0, got %d", i, ss.Count)
		case ss.Speed < 0 || math.IsNaN(ss.Speed) || math.IsInf(ss.Speed, 0):
			return fmt.Errorf("solve: template station %d speed must be >= 0 and finite, got %v", i, ss.Speed)
		}
		if _, err := ss.resolveP(o); err != nil {
			return fmt.Errorf("solve: template station %d: %w", i, err)
		}
	}
	return nil
}

// stationTemplate lowers a threshold/partition/scaled query's owner
// description onto core station groups: the model-form template, or for the
// aggregate form one reference-speed station at utilization util.
func stationTemplate(specs []StationSpec, o, util float64) ([]core.FleetStation, error) {
	if len(specs) == 0 {
		specs = []StationSpec{{Util: util, Speed: 1}}
	}
	if err := validateStationTemplate(specs, o); err != nil {
		return nil, err
	}
	out := make([]core.FleetStation, 0, len(specs))
	for _, ss := range specs {
		p, _ := ss.resolveP(o)
		out = append(out, core.FleetStation{P: p, Speed: ss.Speed, Count: ss.count()})
	}
	return out, nil
}

// tiledSpecs tiles a model-form station template to exactly w stations and
// restates the canonical result as scenario specs, the form the simulation
// probes and the partition report carry.
func tiledSpecs(specs []StationSpec, o float64, w int) ([]StationSpec, error) {
	template, err := stationTemplate(specs, o, 0)
	if err != nil {
		return nil, err
	}
	tiled, err := core.TileFleet(template, w)
	if err != nil {
		return nil, err
	}
	out := make([]StationSpec, 0, len(tiled))
	for _, s := range tiled {
		out = append(out, StationSpec{P: s.P, Speed: s.Speed, Count: s.Count})
	}
	return out, nil
}

// Validate checks the scenario for internal consistency.
func (s Scenario) Validate() error {
	if s.Phased() {
		if err := s.validatePhased(); err != nil {
			return err
		}
	} else if s.Heterogeneous() {
		if err := s.validateHeterogeneous(); err != nil {
			return err
		}
	} else if s.Explicit() {
		// The stations define the owner workload; a scenario that also sets
		// the aggregate owner fields is contradictory — the values would be
		// silently ignored, which hides user intent. Reject it loudly.
		if s.O != 0 || s.Util != 0 || s.P != 0 || s.OwnerCV2 != 0 {
			return fmt.Errorf("solve: explicit-station scenario %q also sets aggregate owner fields (o/util/p/owner_cv2); remove them — the stations define the owner workload", s.Name)
		}
		total := 0
		for i, ss := range s.Stations {
			if ss.OwnerThink == "" || ss.OwnerDemand == "" {
				return fmt.Errorf("solve: station %d needs owner_think and owner_demand specs", i)
			}
			if _, err := ss.configs(); err != nil {
				return err
			}
			total += ss.count()
		}
		if s.W != 0 && s.W != total {
			return fmt.Errorf("solve: w=%d disagrees with %d explicit stations", s.W, total)
		}
		if s.TaskDemand == "" && !(s.J > 0) {
			return fmt.Errorf("solve: explicit scenario needs task_demand or j")
		}
	} else {
		if _, err := s.Params(); err != nil {
			return err
		}
		if !(s.O > 0) {
			return fmt.Errorf("solve: owner burst demand o must be positive, got %v", s.O)
		}
	}
	if s.Util != 0 && s.P != 0 {
		return fmt.Errorf("solve: set util or p, not both")
	}
	if s.OwnerCV2 < 0 {
		return fmt.Errorf("solve: owner_cv2 must be >= 0, got %v", s.OwnerCV2)
	}
	if s.Deadline < 0 {
		return fmt.Errorf("solve: deadline must be >= 0, got %v", s.Deadline)
	}
	if s.TargetEff < 0 || s.TargetEff > 1 {
		return fmt.Errorf("solve: target_eff must be in [0,1], got %v", s.TargetEff)
	}
	if s.TaskDemand != "" {
		if _, err := rng.Parse(s.TaskDemand); err != nil {
			return err
		}
	}
	return nil
}

// Params reduces an aggregate scenario to the discrete model's parameters.
// Explicit-station scenarios are not reducible and return an error.
func (s Scenario) Params() (core.Params, error) {
	if s.Phased() {
		return core.Params{}, fmt.Errorf("solve: scenario %q has a non-stationary owner timeline; only timeline queries answer phased scenarios", s.Name)
	}
	if s.Heterogeneous() {
		return core.Params{}, fmt.Errorf("solve: scenario %q is a heterogeneous fleet; the homogeneous model does not reduce it — use Fleet()", s.Name)
	}
	if s.Explicit() {
		return core.Params{}, fmt.Errorf("solve: scenario %q uses explicit stations; the discrete model needs the aggregate J/W/O/util form", s.Name)
	}
	if s.P > 0 {
		p := core.NewParams(s.J, s.W, s.O, s.P)
		return p, p.Validate()
	}
	return core.ParamsFromUtilization(s.J, s.W, s.O, s.Util)
}

// StationCount returns the number of workstations, for either description
// form.
func (s Scenario) StationCount() int {
	if len(s.Stations) == 0 {
		return s.W
	}
	total := 0
	for _, ss := range s.Stations {
		total += ss.count()
	}
	return total
}

// GeneralConfig lowers the scenario onto the DES simulator.
func (s Scenario) GeneralConfig() (sim.GeneralConfig, error) {
	if err := s.Validate(); err != nil {
		return sim.GeneralConfig{}, err
	}
	var cfg sim.GeneralConfig
	cfg.Seed = s.Seed
	if s.Heterogeneous() {
		// Model-form fleet: each station's owner is the paper's workload
		// at its own request probability — geometric think, mean-O bursts
		// (hyperexponential under an OwnerCV2 ablation) — and its speed
		// scales task execution in the engine.
		demand := rng.Dist(rng.Deterministic{V: s.O})
		if s.OwnerCV2 > 1 {
			demand = rng.BalancedHyperExp(s.O, s.OwnerCV2)
		}
		for i, ss := range s.Stations {
			p, err := ss.resolveP(s.O)
			if err != nil {
				return sim.GeneralConfig{}, fmt.Errorf("solve: station %d: %w", i, err)
			}
			st := sim.StationConfig{OwnerThink: rng.NewGeometric(p), OwnerDemand: demand, Speed: ss.Speed}
			for k := 0; k < ss.count(); k++ {
				cfg.Stations = append(cfg.Stations, st)
			}
		}
	} else if s.Explicit() {
		for _, ss := range s.Stations {
			sts, err := ss.configs()
			if err != nil {
				return sim.GeneralConfig{}, err
			}
			cfg.Stations = append(cfg.Stations, sts...)
		}
	} else {
		p, err := s.Params()
		if err != nil {
			return sim.GeneralConfig{}, err
		}
		demand := rng.Dist(rng.Deterministic{V: s.O})
		if s.OwnerCV2 > 1 {
			demand = rng.BalancedHyperExp(s.O, s.OwnerCV2)
		}
		st := sim.StationConfig{OwnerThink: rng.NewGeometric(p.P), OwnerDemand: demand}
		for i := 0; i < s.W; i++ {
			cfg.Stations = append(cfg.Stations, st)
		}
	}
	switch {
	case s.TaskDemand != "":
		d, err := rng.Parse(s.TaskDemand)
		if err != nil {
			return sim.GeneralConfig{}, err
		}
		cfg.TaskDemand = d
	case s.J > 0:
		cfg.TaskDemand = rng.Deterministic{V: s.J / float64(s.StationCount())}
	default:
		return sim.GeneralConfig{}, fmt.Errorf("solve: scenario %q has no task demand", s.Name)
	}
	return cfg, nil
}

// TotalDemand is the job demand J: the aggregate field when present,
// otherwise stations × mean task demand.
func (s Scenario) TotalDemand() (float64, error) {
	if s.J > 0 {
		return s.J, nil
	}
	if s.TaskDemand == "" {
		return 0, fmt.Errorf("solve: scenario %q has neither j nor task_demand", s.Name)
	}
	d, err := rng.Parse(s.TaskDemand)
	if err != nil {
		return 0, err
	}
	return d.Mean() * float64(s.StationCount()), nil
}

// Utilization is the owner utilization the weighted metrics divide by:
// the configured aggregate value, or the mean across explicit stations.
func (s Scenario) Utilization() (float64, error) {
	if s.Heterogeneous() {
		f, err := s.Fleet()
		if err != nil {
			return 0, err
		}
		return f.Utilization(), nil
	}
	if !s.Explicit() {
		p, err := s.Params()
		if err != nil {
			return 0, err
		}
		return p.Utilization(), nil
	}
	cfg, err := s.GeneralConfig()
	if err != nil {
		return 0, err
	}
	return cfg.MeanUtilization(), nil
}

// analyticKey is the deduplication key for the sweep engine's analytic
// cache: everything the analytic backend's answer depends on, as a plain
// comparable struct so dense grids pay no per-point formatting or
// allocation. Seed, Name and OwnerCV2 are deliberately excluded — the exact
// analysis sees only the mean owner demand, so grid points differing only in
// those fields share one solve.
type analyticKey struct {
	j        float64
	w        int
	o        float64
	p        float64
	deadline float64
	target   float64
}

// analyticCacheKey builds the dedup key; ok is false when the scenario is
// outside the discrete model (explicit stations, custom task demand). For
// heterogeneous fleets the extra string carries the canonical fleet
// signature — the PR 8 schedule pattern — so the answer cache, sweep dedup
// and RouteHash distinguish fleets with zero new plumbing while analytic
// siblings (split groups, p-vs-util spellings) still share one solve.
func (s Scenario) analyticCacheKey() (analyticKey, string, bool) {
	if s.Heterogeneous() {
		f, err := s.Fleet()
		if err != nil {
			return analyticKey{}, "", false
		}
		k := analyticKey{j: f.J, w: f.W(), o: f.O, deadline: s.Deadline, target: s.TargetEff}
		return k, fleetSignature(f), true
	}
	p, err := s.Params()
	if err != nil {
		return analyticKey{}, "", false
	}
	if s.TaskDemand != "" {
		return analyticKey{}, "", false // not the discrete model's workload
	}
	return analyticKey{j: p.J, w: p.W, o: p.O, p: p.P, deadline: s.Deadline, target: s.TargetEff}, "", true
}

// ParseScenario decodes a scenario from JSON, rejecting unknown fields so
// typos in hand-written files fail loudly.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := unmarshalStrict(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("solve: bad scenario: %w", err)
	}
	return s, s.Validate()
}

// LoadScenario reads and decodes a scenario JSON file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	return ParseScenario(data)
}

func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
