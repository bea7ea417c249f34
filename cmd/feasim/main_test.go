package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The subcommand functions print to stdout and return errors; these tests
// exercise flag parsing, parameter validation, and the happy paths.

func discardStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = old
		null.Close()
	})
}

// writeFile drops JSON content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs f and returns everything it printed to stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

const testScenario = `{"name":"t","j":1000,"w":10,"o":10,"util":0.05,"target_eff":0.8,"seed":7}`

func TestCmdRun(t *testing.T) {
	discardStdout(t)
	path := writeFile(t, "scenario.json", testScenario)
	// All three backends on one scenario; a small protocol keeps it fast.
	if err := cmdRun([]string{"-protocol", "5,100", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-backend", "analytic", "-json", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-backend", "csim", path}); err == nil {
		t.Error("unknown backend should error")
	}
	if err := cmdRun([]string{path, "extra"}); err == nil {
		t.Error("extra args should error")
	}
	if err := cmdRun([]string{filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing file should error")
	}
	if err := cmdRun([]string{"-protocol", "20", path}); err == nil {
		t.Error("malformed protocol should error")
	}
	bad := writeFile(t, "bad.json", `{"j": 100, "w": 10, "o": 10, "wiggle": 1}`)
	if err := cmdRun([]string{bad}); err == nil {
		t.Error("unknown scenario field should error")
	}
}

func TestCmdSweep(t *testing.T) {
	discardStdout(t)
	path := writeFile(t, "sweep.json", `{
		"base": {"j": 1000, "w": 10, "o": 10, "seed": 3},
		"util": [0.05, 0.1],
		"task_ratio": [5, 10],
		"backends": ["analytic", "exact"],
		"protocol": {"Batches": 5, "BatchSize": 100, "Level": 0.9}
	}`)
	if err := cmdSweep([]string{"-workers", "2", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{}); err == nil {
		t.Error("missing spec file should error")
	}
	bad := writeFile(t, "bad.json", `{"base": {"j": 1000, "w": 10, "o": 10}, "backends": ["csim"]}`)
	if err := cmdSweep([]string{bad}); err == nil {
		t.Error("unknown backend should error")
	}
	typo := writeFile(t, "typo.json", `{"base": {"j": 1000, "w": 10, "o": 10, "wiggle": 1}, "util": [0.05]}`)
	if err := cmdSweep([]string{typo}); err == nil {
		t.Error("unknown scenario field under base should error")
	}
	// Every point fails (T = 1000/7 is not integral): the summary must
	// surface that as an error rather than reporting success.
	failing := writeFile(t, "failing.json",
		`{"base": {"j": 1000, "w": 7, "o": 10, "util": 0.05}, "backends": ["exact"]}`)
	if err := cmdSweep([]string{failing}); err == nil {
		t.Error("sweep with failed points should error")
	}
	// Its -json line carries the error and no zero-valued report a reader
	// could take for an answer.
	var sweepErr error
	out := captureStdout(t, func() error { sweepErr = cmdSweep([]string{"-json", failing}); return nil })
	if sweepErr == nil {
		t.Error("-json sweep with failed points should error")
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("failed point line %q: %v", out, err)
	}
	if _, ok := line["error"]; !ok {
		t.Errorf("failed point line has no error: %s", out)
	}
	if _, ok := line["report"]; ok {
		t.Errorf("failed point line has a report: %s", out)
	}
}

// TestCmdSweepFrontierGolden runs the checked-in frontier spec (analytic,
// fixed seed — fully deterministic, including the level-order stream) and
// compares the rendered cell table against the golden file. Regenerate with:
//
//	go run ./cmd/feasim sweep -frontier cmd/feasim/testdata/sweep_frontier.json \
//	    > cmd/feasim/testdata/sweep_frontier.golden
func TestCmdSweepFrontierGolden(t *testing.T) {
	in := filepath.Join("testdata", "sweep_frontier.json")
	out := captureStdout(t, func() error { return cmdSweep([]string{"-frontier", in}) })
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_frontier.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("frontier golden mismatch:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestCmdSweepGolden runs the checked-in report-grid spec (analytic, exact
// and DES over 3 utilizations × 3 task ratios, seeded) on one worker, so
// the stream arrives in grid order, and compares the text table and the
// -json lines (elapsed_ns zeroed) against the golden files. Regenerate with:
//
//	go run ./cmd/feasim sweep -workers 1 testdata/sweep.json \
//	    > cmd/feasim/testdata/sweep_grid.golden
//	go run ./cmd/feasim sweep -workers 1 -json testdata/sweep.json \
//	    | sed -E 's/"elapsed_ns":[0-9]+/"elapsed_ns":0/' \
//	    > cmd/feasim/testdata/sweep_grid_json.golden
func TestCmdSweepGolden(t *testing.T) {
	in := filepath.Join("..", "..", "testdata", "sweep.json")
	elapsed := regexp.MustCompile(`"elapsed_ns":\d+`)
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"sweep_grid", []string{"-workers", "1", in}},
		{"sweep_grid_json", []string{"-workers", "1", "-json", in}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			out := captureStdout(t, func() error { return cmdSweep(c.args) })
			out = elapsed.ReplaceAllString(out, `"elapsed_ns":0`)
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("%s golden mismatch:\n--- got ---\n%s--- want ---\n%s", c.golden, out, want)
			}
		})
	}
}

func TestCmdSweepFrontier(t *testing.T) {
	discardStdout(t)
	in := filepath.Join("testdata", "sweep_frontier.json")
	if err := cmdSweep([]string{"-frontier", "-json", "-workers", "2", in}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-frontier"}); err == nil {
		t.Error("missing spec file should error")
	}
	// A grid sweep spec is not a frontier spec: the axis declarations are
	// missing, and the loader must say so instead of running a degenerate
	// search.
	grid := writeFile(t, "grid.json", `{"base": {"j": 1000, "w": 10, "o": 10}, "util": [0.05]}`)
	if err := cmdSweep([]string{"-frontier", grid}); err == nil {
		t.Error("grid spec under -frontier should error")
	}
	// The explicit-station/task_ratio rejection reaches the CLI too.
	explicit := writeFile(t, "explicit.json", `{
		"base": {"kind": "report", "scenario": {
			"stations": [{"owner_think": "exp:90", "owner_demand": "det:10"}],
			"task_demand": "det:100", "target_eff": 0.8}},
		"x": {"axis": "util", "min": 0.05, "max": 0.2},
		"y": {"axis": "task_ratio", "min": 5, "max": 20}}`)
	err := cmdSweep([]string{"-frontier", explicit})
	if err == nil || !strings.Contains(err.Error(), "explicit-station") {
		t.Errorf("explicit-station ratio axis should be rejected loudly, got %v", err)
	}
}

// TestCmdQueryGoldens answers every query kind's checked-in envelope with
// the (deterministic) analytic backend and compares the rendered text
// against the golden files. Regenerate with:
//
//	go run ./cmd/feasim query cmd/feasim/testdata/query_<kind>.json \
//	    > cmd/feasim/testdata/query_<kind>.golden
//
// A case with flags passes them first; the "_des" timeline case replays
// the seeded DES and pins its answer to the bit through -json (elapsed_ns
// zeroed as in checkBatchGolden). The "fractional" cases answer a cyclic
// workday of 0.1/0.2/0.3-long phases on every backend: by a launch horizon
// (boundaries at fractional offsets) and by an epoch count.
func TestCmdQueryGoldens(t *testing.T) {
	// "fleet" and "fleet_threshold" are heterogeneous spellings of the
	// report and threshold kinds: per-station availability/speed instead of
	// the aggregate util. "threshold_small_o" has O < 1, where ratio 1 is
	// below one time unit of task demand and the search starts at r_min.
	// "timeline_des_samples4" takes 4 samples per epoch, so its confidence
	// intervals use the t quantile at df 3.
	des := []string{"-backend", "des", "-json"}
	all := []string{"-backend", "all"}
	cases := []struct {
		kind string
		args []string
	}{
		{"report", nil}, {"threshold", nil}, {"threshold_small_o", nil},
		{"partition", nil}, {"distribution", nil}, {"scaled", nil},
		{"timeline", nil}, {"timeline_des", des}, {"timeline_des_samples4", des},
		{"timeline_fractional", all}, {"timeline_fractional_epochs", all},
		{"fleet", nil}, {"fleet_threshold", nil},
	}
	elapsed := regexp.MustCompile(`"elapsed_ns": \d+`)
	for _, c := range cases {
		kind := c.kind
		t.Run(kind, func(t *testing.T) {
			in := filepath.Join("testdata", "query_"+kind+".json")
			out := captureStdout(t, func() error { return cmdQuery(append(c.args, in)) })
			out = elapsed.ReplaceAllString(out, `"elapsed_ns": 0`)
			want, err := os.ReadFile(filepath.Join("testdata", "query_"+kind+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s--- want ---\n%s", kind, out, want)
			}
		})
	}
}

func TestCmdQuery(t *testing.T) {
	discardStdout(t)
	// The exact backend answers thresholds empirically by bisection; a small
	// protocol keeps it fast.
	path := filepath.Join("testdata", "query_threshold.json")
	if err := cmdQuery([]string{"-backend", "exact", "-protocol", "5,100", path}); err != nil {
		t.Fatal(err)
	}
	// JSON emission on the analytic backend.
	if err := cmdQuery([]string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	// -backend all must skip incapable backends, not fail: scaled is
	// analytic-only.
	scaled := filepath.Join("testdata", "query_scaled.json")
	if err := cmdQuery([]string{"-backend", "all", scaled}); err != nil {
		t.Fatal(err)
	}
	// A single incapable backend is an error.
	if err := cmdQuery([]string{"-backend", "des", scaled}); err == nil {
		t.Error("des backend on a scaled query should error")
	}
	if err := cmdQuery([]string{"-backend", "csim", path}); err == nil {
		t.Error("unknown backend should error")
	}
	if err := cmdQuery([]string{}); err == nil {
		t.Error("missing envelope file should error")
	}
	// Unknown kind and unknown fields must fail loudly.
	badKind := writeFile(t, "badkind.json", `{"kind": "optimise", "w": 10}`)
	if err := cmdQuery([]string{badKind}); err == nil {
		t.Error("unknown query kind should error")
	}
	badField := writeFile(t, "badfield.json", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "wiggle": 1}`)
	if err := cmdQuery([]string{badField}); err == nil {
		t.Error("unknown envelope field should error")
	}
	noKind := writeFile(t, "nokind.json", `{"w": 10, "o": 10}`)
	if err := cmdQuery([]string{noKind}); err == nil {
		t.Error("missing kind should error")
	}
}

// TestCmdQueryBatchGolden answers the checked-in envelope array with the
// deterministic analytic backend and compares the rendered text against the
// golden file. Regenerate with:
//
//	go run ./cmd/feasim query -batch cmd/feasim/testdata/query_batch.json \
//	    > cmd/feasim/testdata/query_batch.golden
func TestCmdQueryBatchGolden(t *testing.T) {
	in := filepath.Join("testdata", "query_batch.json")
	out := captureStdout(t, func() error { return cmdQuery([]string{"-batch", in}) })
	want, err := os.ReadFile(filepath.Join("testdata", "query_batch.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("batch golden mismatch:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestCmdQueryFleetMixGolden answers 64 seeded heterogeneous reports (2–4
// station classes at speeds {1, 1.5, 2}, some classes sharing a request
// probability across speeds, some dedicated; a third with a target, a third
// with a deadline) with the analytic backend. JSON floats print in their
// shortest round-trip form, so the golden pins every answer to the bit.
// Regenerate with:
//
//	go run ./cmd/feasim query -batch -json cmd/feasim/testdata/query_fleet_mix.json \
//	    | sed -E 's/"elapsed_ns": [0-9]+/"elapsed_ns": 0/' \
//	    > cmd/feasim/testdata/query_fleet_mix.golden
func TestCmdQueryFleetMixGolden(t *testing.T) {
	checkBatchGolden(t, "query_fleet_mix", "-batch", "-json")
}

// TestCmdQueryDESGolden answers 12 seeded envelopes with the DES backend at
// protocol 5×100: homogeneous reports (W = 1, 10, 32, a hyperexponential
// owner, an Erlang task demand), distribution queries, a threshold and a
// partition bisection, model-form fleets with speeds and with owner_cv2,
// and distribution-form explicit stations with an exponential task demand.
// It pins the simulator's event order and RNG draw order to the bit.
// Regenerate with:
//
//	go run ./cmd/feasim query -batch -json -backend des -protocol 5,100 \
//	    cmd/feasim/testdata/query_des.json \
//	    | sed -E 's/"elapsed_ns": [0-9]+/"elapsed_ns": 0/' \
//	    > cmd/feasim/testdata/query_des.golden
func TestCmdQueryDESGolden(t *testing.T) {
	checkBatchGolden(t, "query_des", "-batch", "-json", "-backend", "des", "-protocol", "5,100")
}

// TestCmdQueryExactGolden answers 10 seeded envelopes with the exact-sim
// backend at protocol 5×100: reports at W = 1, 4 and 8 over util 0 to 0.5
// (request probability P up to 0.2), two with task demands of 3000 and 4000
// trials, a distribution query and two threshold bisections. It pins the
// simulator's draw order and burst sampling to the bit. Regenerate with:
//
//	go run ./cmd/feasim query -batch -json -backend exact -protocol 5,100 \
//	    cmd/feasim/testdata/query_exact.json \
//	    | sed -E 's/"elapsed_ns": [0-9]+/"elapsed_ns": 0/' \
//	    > cmd/feasim/testdata/query_exact.golden
func TestCmdQueryExactGolden(t *testing.T) {
	checkBatchGolden(t, "query_exact", "-batch", "-json", "-backend", "exact", "-protocol", "5,100")
}

// checkBatchGolden runs `feasim query args... testdata/<name>.json`, zeroes
// elapsed_ns, and compares the output with testdata/<name>.golden line by
// line.
func checkBatchGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	in := filepath.Join("testdata", name+".json")
	out := captureStdout(t, func() error { return cmdQuery(append(args, in)) })
	got := regexp.MustCompile(`"elapsed_ns": \d+`).ReplaceAllString(out, `"elapsed_ns": 0`)
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s golden mismatch at line %d:\n got %s\nwant %s", name, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s golden mismatch: %d lines, want %d", name, len(g), len(w))
	}
}

func TestCmdQueryBatch(t *testing.T) {
	discardStdout(t)
	// Partial failure: the malformed middle item fails alone; the command
	// still succeeds because its neighbors answered.
	mixed := writeFile(t, "mixed.json", `[
		{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8},
		{"kind": "bogus"},
		{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1, 10]}
	]`)
	if err := cmdQuery([]string{"-batch", mixed}); err != nil {
		t.Errorf("partially failing batch should still succeed: %v", err)
	}
	// JSON emission.
	if err := cmdQuery([]string{"-batch", "-json", mixed}); err != nil {
		t.Fatal(err)
	}
	// All items failing is a command failure.
	allBad := writeFile(t, "allbad.json", `[{"kind": "bogus"}, {"kind": "worse"}]`)
	if err := cmdQuery([]string{"-batch", allBad}); err == nil {
		t.Error("batch with every item failing should error")
	}
	// The array shell must validate.
	notArray := writeFile(t, "notarray.json", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8}`)
	if err := cmdQuery([]string{"-batch", notArray}); err == nil {
		t.Error("-batch on a non-array file should error")
	}
	empty := writeFile(t, "empty.json", `[]`)
	if err := cmdQuery([]string{"-batch", empty}); err == nil {
		t.Error("empty batch should error")
	}
	if err := cmdQuery([]string{"-batch", "-backend", "all", mixed}); err == nil {
		t.Error("-batch with -backend all should error")
	}
}

func TestCmdRunWarmupFlag(t *testing.T) {
	discardStdout(t)
	path := writeFile(t, "scenario.json", testScenario)
	if err := cmdRun([]string{"-backend", "des", "-warmup", "5", "-protocol", "5,100", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdAnalyze(t *testing.T) {
	discardStdout(t)
	if err := cmdAnalyze([]string{"-j", "1000", "-w", "100", "-o", "10", "-util", "0.01"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-util", "1.5"}); err == nil {
		t.Error("bad utilization should error")
	}
}

func TestCmdAssess(t *testing.T) {
	discardStdout(t)
	if err := cmdAssess([]string{"-j", "600", "-w", "60", "-util", "0.2", "-target", "0.8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAssess([]string{"-j", "60000", "-w", "60", "-util", "0.05"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSimulate(t *testing.T) {
	discardStdout(t)
	// Small protocol keeps the test fast; W=50 gives integral T.
	if err := cmdSimulate([]string{"-j", "1000", "-w", "50", "-util", "0.1",
		"-batches", "5", "-batchsize", "100"}); err != nil {
		t.Fatal(err)
	}
	// Non-integral T must be rejected by the exact simulator.
	if err := cmdSimulate([]string{"-j", "1000", "-w", "3", "-util", "0.1",
		"-batches", "5", "-batchsize", "50"}); err == nil {
		t.Error("non-integral T should error")
	}
}
