package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"feasim/internal/plot"
)

func TestAllDefinitionsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if d.ID == "" || d.Paper == "" || d.Workload == "" || d.Run == nil {
			t.Errorf("definition %q incomplete", d.ID)
		}
		if seen[d.ID] {
			t.Errorf("duplicate experiment id %q", d.ID)
		}
		seen[d.ID] = true
	}
	// Every paper artifact is present (11 figures + validation + table)
	// plus the three extension studies.
	if len(All()) != 16 {
		t.Errorf("expected 16 experiments, got %d", len(All()))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig07"); !ok {
		t.Error("fig07 should exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs() length mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := TestConfig().Validate(); err != nil {
		t.Errorf("test config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Error("Runs=0 should fail")
	}
	bad2 := DefaultConfig()
	bad2.WStep = 0
	if err := bad2.Validate(); err == nil {
		t.Error("WStep=0 should fail")
	}
	bad3 := DefaultConfig()
	bad3.ValidationWs = nil
	if err := bad3.Validate(); err == nil {
		t.Error("empty ValidationWs should fail")
	}
}

func TestCheckPass(t *testing.T) {
	if !(Check{Paper: 10, Got: 10.4, AbsTol: 0.5}).Pass() {
		t.Error("within abs tolerance should pass")
	}
	if (Check{Paper: 10, Got: 10.6, AbsTol: 0.5}).Pass() {
		t.Error("outside abs tolerance should fail")
	}
	if !(Check{Paper: 100, Got: 104, RelTol: 0.05}).Pass() {
		t.Error("within rel tolerance should pass")
	}
	c := Check{Name: "x", Paper: 1, Got: 2}
	if !strings.Contains(c.String(), "MISS") {
		t.Error("failing check should render MISS")
	}
}

// TestEveryExperimentRunsAndPasses executes all 15 experiments with the
// scaled-down test configuration and requires every paper check to pass and
// every figure/table to be well-formed.
func TestEveryExperimentRunsAndPasses(t *testing.T) {
	cfg := TestConfig()
	for _, d := range All() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			out, err := d.Run(cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", d.ID, err)
			}
			if out.Figure == nil && out.Table == nil {
				t.Fatalf("%s produced neither figure nor table", d.ID)
			}
			if out.Figure != nil {
				if err := out.Figure.Validate(); err != nil {
					t.Fatalf("%s figure invalid: %v", d.ID, err)
				}
				if _, err := plot.RenderASCII(*out.Figure, 72, 20); err != nil {
					t.Fatalf("%s does not render: %v", d.ID, err)
				}
				if _, err := plot.CSV(*out.Figure); err != nil {
					t.Fatalf("%s CSV failed: %v", d.ID, err)
				}
			}
			if out.Table != nil && len(out.Table.Rows) == 0 {
				t.Fatalf("%s table empty", d.ID)
			}
			for _, c := range out.Checks {
				if !c.Pass() {
					t.Errorf("%s: %s", d.ID, c)
				}
			}
		})
	}
}

// TestDESFiguresGolden pins the CSV bytes of every figure and of the
// thresholds table under TestConfig: fig01-fig09 run the analysis, fig10 and
// fig11 the Section 4 station loop, ext01 and ext03 the general simulator,
// ext02 the multi-job one, and simval the exact simulator beside the
// analysis through the sweep engine. CSV cells print in %g, so every value is
// pinned to the bit. Regenerate with:
//
//	go run ./cmd/figures -fast -out /tmp/figs && cp /tmp/figs/{fig??,ext0?,simval,thresholds}.csv internal/experiment/testdata/
func TestDESFiguresGolden(t *testing.T) {
	cfg := TestConfig()
	ids := []string{
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
		"fig07", "fig08", "fig09", "fig10", "fig11",
		"ext01", "ext02", "ext03", "simval", "thresholds",
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			d, ok := ByID(id)
			if !ok {
				t.Fatalf("no experiment %s", id)
			}
			out, err := d.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			if out.Table != nil {
				got = out.Table.CSV()
			} else if got, err = plot.CSV(*out.Figure); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s CSV differs from its golden:\n got:\n%s\nwant:\n%s", id, got, want)
			}
		})
	}
}

func TestFigureSeriesCounts(t *testing.T) {
	cfg := TestConfig()
	wantSeries := map[string]int{
		"fig01": 5,  // perfect + 4 utils
		"fig02": 4,  // 4 utils
		"fig03": 5,  // perfect + 4
		"fig04": 4,  // 4
		"fig07": 4,  // 4 utils
		"fig08": 6,  // 6 system sizes
		"fig09": 4,  // 4 utils
		"fig10": 10, // 5 demands x (measured, analytic)
		"fig11": 6,  // perfect + 5 demands
	}
	for id, want := range wantSeries {
		d, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := d.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := len(out.Figure.Series); got != want {
			t.Errorf("%s: %d series, want %d", id, got, want)
		}
	}
}

func TestRunAllAndMarkdownReport(t *testing.T) {
	results := RunAll(TestConfig())
	if len(results) != len(All()) {
		t.Fatalf("RunAll returned %d results", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s errored: %v", r.ID, r.Err)
		}
	}
	if fails := FailedChecks(results); len(fails) != 0 {
		for _, c := range fails {
			t.Errorf("failed check: %s", c)
		}
	}
	md := MarkdownReport(results)
	for _, id := range IDs() {
		if !strings.Contains(md, id) {
			t.Errorf("markdown report missing %s", id)
		}
	}
	if !strings.Contains(md, "| Paper | Measured |") {
		t.Error("report header malformed")
	}
}

func TestWSweepIncludesEndpoints(t *testing.T) {
	for _, step := range []int{1, 7, 50, 200} {
		ws := wSweep(step)
		if ws[0] != 1 || ws[len(ws)-1] != 100 {
			t.Errorf("step %d: sweep endpoints %d..%d", step, ws[0], ws[len(ws)-1])
		}
		for i := 1; i < len(ws); i++ {
			if ws[i] <= ws[i-1] {
				t.Errorf("step %d: sweep not strictly increasing", step)
			}
		}
	}
}
