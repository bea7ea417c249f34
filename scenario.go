package feasim

import "feasim/internal/solve"

// ---- Unified Scenario/Solver API ----
//
// The declarative entry point: a Scenario describes the feasibility
// question once, and any Solver backend — analytic, exact simulation, or
// discrete-event simulation — answers it. See NewAnalyticSolver,
// NewExactSimSolver, NewDESSolver and RunQuerySweep.

// Scenario is the declarative, JSON-serializable description of one
// feasibility question: the workload (aggregate J/W/O/util, or explicit
// per-station distributions), an optional deadline, and an optional
// weighted-efficiency target.
type Scenario = solve.Scenario

// PhaseSpec is one phase of a scenario's owner-utilization timeline
// (Scenario.Schedule / Scenario.Trace): the owners run at Util for Duration
// time units.
type PhaseSpec = solve.PhaseSpec

// StationSpec declares one workstation's owner workload by rng.Parse
// distribution spec strings, for explicit-station scenarios.
type StationSpec = solve.StationSpec

// ParseScenario decodes a Scenario from JSON, rejecting unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return solve.ParseScenario(data) }

// LoadScenario reads and decodes a scenario JSON file.
func LoadScenario(path string) (Scenario, error) { return solve.LoadScenario(path) }
