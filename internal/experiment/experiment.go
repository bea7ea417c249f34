// Package experiment defines one reproducible experiment per figure and
// table in the paper's evaluation, plus the simulation-validation run of
// Section 2.2 and the conclusions' threshold table. Each definition knows
// its workload, regenerates its data series, and carries "checks" — the
// numbers the paper quotes in prose — so EXPERIMENTS.md can report
// paper-vs-measured for every artifact.
package experiment

import (
	"fmt"
	"math"
	"sort"

	"feasim/internal/plot"
	"feasim/internal/sim"
)

// Check compares a reproduced value against one the paper quotes.
type Check struct {
	Name  string
	Paper float64 // the paper's number
	Got   float64 // our number
	// AbsTol and RelTol define the acceptance band: pass when
	// |Got-Paper| <= AbsTol + RelTol*|Paper|.
	AbsTol, RelTol float64
}

// Pass reports whether the reproduced value is inside the band.
func (c Check) Pass() bool {
	return math.Abs(c.Got-c.Paper) <= c.AbsTol+c.RelTol*math.Abs(c.Paper)
}

func (c Check) String() string {
	status := "OK"
	if !c.Pass() {
		status = "MISS"
	}
	return fmt.Sprintf("[%s] %s: paper %.4g, measured %.4g", status, c.Name, c.Paper, c.Got)
}

// Output is the result of running one experiment definition.
type Output struct {
	Figure *plot.Figure // line-chart experiments
	Table  *plot.Table  // tabular experiments
	Checks []Check
	Notes  string
}

// Config tunes experiment execution. The zero value is NOT valid; use
// DefaultConfig (paper-fidelity) or TestConfig (scaled down for CI).
type Config struct {
	// Seed drives all stochastic experiments.
	Seed uint64
	// Runs is the repetition count for the Section 4 cluster experiment (the
	// paper: 10).
	Runs int
	// WStep is the sweep granularity over workstation counts in analytic
	// figures (1 reproduces every plotted point).
	WStep int
	// Protocol is the simulation output-analysis protocol for the
	// validation experiment.
	Protocol sim.Protocol
	// ValidationWs lists the system sizes the validation experiment
	// simulates.
	ValidationWs []int
}

// DefaultConfig reproduces the paper's settings.
func DefaultConfig() Config {
	return Config{
		Seed:         1993, // the paper's year; any seed works
		Runs:         10,
		WStep:        1,
		Protocol:     sim.DefaultProtocol(),
		ValidationWs: []int{1, 10, 20, 40, 60, 80, 100},
	}
}

// TestConfig is a scaled-down configuration for fast deterministic tests.
func TestConfig() Config {
	return Config{
		Seed:         1993,
		Runs:         6,
		WStep:        7,
		Protocol:     sim.Protocol{Batches: 10, BatchSize: 200, Level: 0.90, MaxRel: 0, MaxSamples: 1 << 20},
		ValidationWs: []int{1, 50, 100},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Runs < 1 {
		return fmt.Errorf("experiment: Runs must be >= 1, got %d", c.Runs)
	}
	if c.WStep < 1 {
		return fmt.Errorf("experiment: WStep must be >= 1, got %d", c.WStep)
	}
	if len(c.ValidationWs) == 0 {
		return fmt.Errorf("experiment: ValidationWs must not be empty")
	}
	return c.Protocol.Validate()
}

// Definition is one reproducible experiment.
type Definition struct {
	ID       string // stable identifier, e.g. "fig01"
	Paper    string // the paper's caption
	Workload string // parameters in prose, for DESIGN/EXPERIMENTS docs
	Run      func(Config) (Output, error)
}

// All returns every experiment in paper order.
func All() []Definition {
	return []Definition{
		figure01(), figure02(), figure03(), figure04(), figure05(),
		figure06(), figure07(), figure08(), figure09(), figure10(),
		figure11(), simValidation(), thresholdTable(),
		extension01(), extension02(), extension03(),
	}
}

// ByID finds one experiment.
func ByID(id string) (Definition, bool) {
	for _, d := range All() {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}

// IDs lists all experiment identifiers in order.
func IDs() []string {
	defs := All()
	ids := make([]string, len(defs))
	for i, d := range defs {
		ids[i] = d.ID
	}
	return ids
}

// sortedUtils are the owner utilizations all analytic figures sweep.
var paperUtils = []float64{0.01, 0.05, 0.1, 0.2}

// wSweep builds 1..100 with the configured step, always including 1 and 100.
func wSweep(step int) []int {
	set := map[int]bool{1: true, 100: true}
	for w := 1; w <= 100; w += step {
		set[w] = true
	}
	ws := make([]int, 0, len(set))
	for w := range set {
		ws = append(ws, w)
	}
	sort.Ints(ws)
	return ws
}
