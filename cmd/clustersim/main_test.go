package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunSimulation(t *testing.T) {
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	// Paper-shaped workload: analytic comparison branch included.
	if err := run(4, "det:100", "geom:0.0034", "det:10", 400, 10, 1); err != nil {
		t.Fatal(err)
	}
	// High-variance workload: no analytic branch.
	if err := run(2, "unif:50,150", "exp:300", "hyper:0.9,5,55", 200, 5, 2); err != nil {
		t.Fatal(err)
	}
	// Bad distribution specs.
	for _, args := range [][3]string{
		{"wat:1", "geom:0.01", "det:10"},
		{"det:100", "wat:1", "det:10"},
		{"det:100", "geom:0.01", "wat:1"},
	} {
		if err := run(2, args[0], args[1], args[2], 100, 5, 3); err == nil {
			t.Errorf("bad spec %v should error", args)
		}
	}
}

func TestRunWorkday(t *testing.T) {
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	// The workday experiment goes through the timeline query kind; both the
	// analytic walker and the DES replay answer it.
	if err := runWorkday(4, "det:100", "det:10", "morning:480:0.15,night:960:0.02", 40, 1); err != nil {
		t.Fatal(err)
	}
	// Unnamed phases parse too.
	if err := runWorkday(2, "det:50", "det:10", "100:0.1", 20, 2); err != nil {
		t.Fatal(err)
	}
	// Non-deterministic workloads have no timeline form.
	if err := runWorkday(2, "exp:100", "det:10", "100:0.1", 20, 3); err == nil {
		t.Error("exp task with -workday should error")
	}
	if err := runWorkday(2, "det:100", "exp:10", "100:0.1", 20, 3); err == nil {
		t.Error("exp owner with -workday should error")
	}
	// Malformed phase specs and invalid schedules fail loudly.
	for _, spec := range []string{"", "x", "a:1:2:3", "nan:0.1", "100:wat", "100:1.5", "-5:0.1"} {
		if err := runWorkday(2, "det:100", "det:10", spec, 20, 4); err == nil {
			t.Errorf("workday spec %q should error", spec)
		}
	}
}

// TestRunWorkdayReportsBackendFailures pins that only unsupported-kind
// refusals are skipped: a backend that supports timelines but fails on the
// envelope (the DES replay needs at least two replications) must fail the
// run instead of leaving only the analytic table behind.
func TestRunWorkdayReportsBackendFailures(t *testing.T) {
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	err := runWorkday(4, "det:100", "det:10", "a:100:0.1,b:100:0.3", 1, 1)
	if err == nil || !strings.Contains(err.Error(), "des") {
		t.Fatalf("DES failure with one replication should surface, got %v", err)
	}
}

func TestParseWorkday(t *testing.T) {
	phases, err := parseWorkday("morning:480:0.15, 960:0.02")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || phases[0].Name != "morning" || phases[1].Name != "" ||
		phases[1].Duration != 960 || phases[1].Util != 0.02 {
		t.Fatalf("parsed %+v", phases)
	}
}
