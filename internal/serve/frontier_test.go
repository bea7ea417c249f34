package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"feasim/internal/serve"
	"feasim/internal/solve"
)

// permitSolver answers report queries with a rule-based feasibility verdict
// (feasible iff scenario util < 0.3), gated on a permit channel so tests
// control exactly how many probes may run. The verdict rides in both
// Feasible and WeightedEfficiency (1 or 0): frontier probes send no target
// and classify by the efficiency. It registers as "analytic" so the
// frontier path exercises the server's default cached-solver wiring.
type permitSolver struct {
	permits chan struct{}
}

func (p *permitSolver) Name() string           { return solve.BackendAnalytic }
func (p *permitSolver) Capabilities() []string { return solve.QueryKinds() }

func (p *permitSolver) Answer(ctx context.Context, q solve.Query) (solve.Answer, error) {
	select {
	case <-p.permits:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	sc := q.(solve.ReportQuery).Scenario
	feasible := sc.Util < 0.3
	weff := 0.0
	if feasible {
		weff = 1
	}
	return solve.ReportAnswer{Report: solve.Report{
		Scenario: sc, Backend: p.Name(), W: sc.W, WeightedEfficiency: weff, Feasible: &feasible,
	}}, nil
}

func (p *permitSolver) Solve(ctx context.Context, s solve.Scenario) (solve.Report, error) {
	a, err := p.Answer(ctx, solve.ReportQuery{Scenario: s})
	if err != nil {
		return solve.Report{}, err
	}
	return a.(solve.ReportAnswer).Report, nil
}

// frontierSpecJSON is the fixture streamed by the frontier endpoint tests:
// coarse 2 × depth 1 (resolution 4) over a vertical feasibility boundary at
// util 0.3, one worker so permit accounting is deterministic.
const frontierSpecJSON = `{
	"base": {"kind": "report", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8}},
	"x": {"axis": "util", "min": 0.1, "max": 0.5},
	"y": {"axis": "task_ratio", "min": 10, "max": 50},
	"coarse": 2, "depth": 1, "workers": 1, "seed": 3
}`

// TestFrontierEndpointStreamsIncrementally is the tentpole's streaming
// acceptance proof: with exactly enough permits for the coarse level, the
// first resolved-cell lines must arrive over the wire while the refinement
// level is still blocked inside the solver — the stream cannot be a buffered
// response in disguise.
func TestFrontierEndpointStreamsIncrementally(t *testing.T) {
	p := &permitSolver{permits: make(chan struct{}, 64)}
	_, ts := newTestServer(t, serve.Config{
		Solvers: map[string]solve.Solver{solve.BackendAnalytic: p},
	})
	// The coarse level evaluates the 3×3 node lattice: 9 probes, not one
	// more. Level 1 then blocks on the 10th permit.
	for i := 0; i < 9; i++ {
		p.permits <- struct{}{}
	}
	resp, err := http.Post(ts.URL+"/v1/sweep?mode=frontier", "application/json", strings.NewReader(frontierSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	readLine := func() map[string]any {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return m
	}
	// The two uniform coarse cells (util ≥ 0.3, both infeasible) resolve at
	// depth 0 and must arrive now, while the run is provably incomplete: the
	// permit budget is exhausted, so the refinement level cannot have run.
	for i := 0; i < 2; i++ {
		line := readLine()
		if line["verdict"] != "infeasible" || line["depth"] != float64(0) {
			t.Fatalf("early line %d: want a depth-0 infeasible cell, got %v", i, line)
		}
	}
	if len(p.permits) != 0 {
		t.Fatalf("%d permits left over; the coarse level should consume exactly 9", len(p.permits))
	}
	// Unblock the refinement level and drain the rest of the stream.
	close(p.permits)
	var cells int = 2
	var done map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if m["done"] == true {
			done = m
			continue
		}
		if m["error"] != nil {
			t.Fatalf("unexpected terminal error record: %v", m)
		}
		cells++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if done == nil {
		t.Fatal("stream ended without the terminal done record")
	}
	stats, ok := done["stats"].(map[string]any)
	if !ok {
		t.Fatalf("done record carries no stats: %v", done)
	}
	if stats["resolution"] != float64(4) {
		t.Errorf("stats.resolution = %v, want 4", stats["resolution"])
	}
	if int(stats["cells"].(float64)) != cells {
		t.Errorf("stats.cells = %v, but %d cell lines streamed", stats["cells"], cells)
	}
	if stats["boundary"].(float64) == 0 {
		t.Error("no boundary cells; the util-0.3 line should cross the window")
	}
	if stats["evaluations"].(float64) >= stats["dense_evaluations"].(float64) {
		t.Errorf("adaptive probes %v not below dense %v", stats["evaluations"], stats["dense_evaluations"])
	}
}

// TestFrontierEndpointDeadlineTerminalRecord: when the per-request deadline
// expires mid-run, the committed 200 stream must end with a terminal NDJSON
// error record carrying the 504 taxonomy code — never a silently truncated
// body.
func TestFrontierEndpointDeadlineTerminalRecord(t *testing.T) {
	p := &permitSolver{permits: make(chan struct{})} // never released
	_, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{solve.BackendAnalytic: p},
		RequestTimeout: 100 * time.Millisecond,
	})
	resp, err := http.Post(ts.URL+"/v1/sweep?mode=frontier", "application/json", strings.NewReader(frontierSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (the stream commits 200 before the deadline can fire)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var last map[string]any
	lines := 0
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if last == nil {
		t.Fatal("stream carried no terminal record")
	}
	if last["done"] == true {
		t.Fatalf("blocked run reported success: %v", last)
	}
	if last["status"] != float64(http.StatusGatewayTimeout) {
		t.Errorf("terminal record status = %v, want 504", last["status"])
	}
	if msg, _ := last["error"].(string); !strings.Contains(msg, "stopped after") {
		t.Errorf("terminal record error %q should say how many cells streamed", msg)
	}
}

// TestFrontierEndpointRejectsBadSpecs: malformed or invalid specs fail with
// a buffered 400 before any stream commits, and unknown modes 400 on the
// shared /v1/sweep route.
func TestFrontierEndpointRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for name, body := range map[string]string{
		"not json":   `{`,
		"empty spec": `{}`,
		"same axis": `{"base": {"kind": "report", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8}},
			"x": {"axis": "util", "min": 0.1, "max": 0.5}, "y": {"axis": "util", "min": 0.1, "max": 0.5}}`,
		"no verdict": `{"base": {"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8},
			"x": {"axis": "w", "min": 1, "max": 10}, "y": {"axis": "util", "min": 0.1, "max": 0.5}}`,
	} {
		status, payload := post(t, ts.URL+"/v1/sweep?mode=frontier", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, status, payload)
		}
	}
	status, payload := post(t, ts.URL+"/v1/sweep?mode=zigzag", `{}`)
	if status != http.StatusBadRequest {
		t.Errorf("unknown mode: status %d (%v), want 400", status, payload)
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, "zigzag") {
		t.Errorf("unknown-mode error %q should name the mode", msg)
	}
}

// TestGridSweepDeadlineIsTaxonomied: the buffered grid path's mid-sweep
// deadline must map to 504 per the taxonomy — a regression guard against
// truncated-200 bodies (the bug class the streaming mode makes observable).
// Grid sweeps build their backends from the registry, so the slow point is a
// real DES solve far too large for the request deadline.
func TestGridSweepDeadlineIsTaxonomied(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		RequestTimeout: 100 * time.Millisecond,
	})
	status, payload := post(t, ts.URL+"/v1/sweep", `{
		"base": {"kind": "report", "scenario": {"j": 100000, "w": 10, "o": 10, "target_eff": 0.8}},
		"util": [0.05, 0.1], "backends": ["des"], "workers": 1, "seed": 2
	}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", status, payload)
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, "sweep stopped after") {
		t.Errorf("error %q should report the cut point", msg)
	}
}
