package core

import (
	"testing"
)

func TestMaxWorkstationsBoundary(t *testing.T) {
	// J=2000, O=10, util 5%: from the taskratio example, weff crosses 0.8
	// somewhere between 24 and 48 workstations.
	w, err := MaxWorkstations(2000, 10, paperStations(1, 0.05), 0.8, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The returned W must meet the target and W+1 must miss it.
	at := func(wk int) float64 {
		p, err := ParamsFromUtilization(2000, wk, 10, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return MustAnalyze(p.Fleet()).WeightedEfficiency
	}
	if at(w) < 0.8 {
		t.Errorf("W=%d misses the target: %.4f", w, at(w))
	}
	if at(w+1) >= 0.8 {
		t.Errorf("W=%d is not maximal: W+1 reaches %.4f", w, at(w+1))
	}
}

func TestMaxWorkstationsWholeRangeFeasible(t *testing.T) {
	// An enormous job meets 80% everywhere up to maxW.
	w, err := MaxWorkstations(1e6, 10, paperStations(1, 0.05), 0.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w != 100 {
		t.Errorf("W = %d, want the full 100", w)
	}
}

func TestMaxWorkstationsSingleStationIdentity(t *testing.T) {
	// On one workstation weighted efficiency is exactly 1 — the identity
	// (1-U)*E_t = T — so any target <= 1 is feasible at W=1, and a tiny job
	// is simply capped at W = floor(J) by the T >= 1 constraint.
	w, err := MaxWorkstations(10, 10, paperStations(1, 0.3), 0.99, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w < 1 || w > 10 {
		t.Errorf("W = %d, must be within [1, floor(J)=10]", w)
	}
}

func TestMaxWorkstationsSubUnitJob(t *testing.T) {
	// A job below one time unit cannot be modelled at all.
	if _, err := MaxWorkstations(0.5, 10, paperStations(1, 0.3), 0.8, 100); err == nil {
		t.Error("sub-unit job should error")
	}
}

func TestMaxWorkstationsValidation(t *testing.T) {
	if _, err := MaxWorkstations(100, 10, paperStations(1, 0.05), 0.8, 0); err == nil {
		t.Error("maxW=0 should fail")
	}
	if _, err := MaxWorkstations(100, 10, paperStations(1, 0.05), 0, 10); err == nil {
		t.Error("target 0 should fail")
	}
	if _, err := MaxWorkstations(100, 10, paperStations(1, 0.05), 1.5, 10); err == nil {
		t.Error("target > 1 should fail")
	}
	if _, err := MaxWorkstations(100, 10, []FleetStation{{P: 1.5, Count: 1}}, 0.8, 10); err == nil {
		t.Error("bad request probability should propagate")
	}
}

func TestWeightedEffMonotoneInW(t *testing.T) {
	// The monotonicity MaxWorkstations' binary search relies on: for fixed
	// J, weighted efficiency never rises when adding workstations (modulo
	// the tiny rounding wiggle from integral binomial trials).
	prev := 2.0
	for w := 1; w <= 128; w++ {
		p, err := ParamsFromUtilization(2000, w, 10, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		eff := MustAnalyze(p.Fleet()).WeightedEfficiency
		if eff > prev+0.005 {
			t.Fatalf("weighted efficiency rose at W=%d: %.5f after %.5f", w, eff, prev)
		}
		prev = eff
	}
}

// TestPlanPartition: the plan a right-sizing caller builds — the template
// tiled to MaxWorkstations' W, analyzed there — meets its own target.
func TestPlanPartition(t *testing.T) {
	template := paperStations(1, 0.05)
	w, err := MaxWorkstations(2000, 10, template, 0.8, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w < 1 || w > 200 {
		t.Errorf("plan W = %d out of range", w)
	}
	stations, err := TileFleet(template, w)
	if err != nil {
		t.Fatal(err)
	}
	if r := MustAnalyze(Fleet{J: 2000, O: 10, Stations: stations}); r.WeightedEfficiency < 0.8 {
		t.Errorf("plan misses its own target: %.4f < 0.8", r.WeightedEfficiency)
	}
	if _, err := MaxWorkstations(0.5, 10, paperStations(1, 0.3), 0.99, 100); err == nil {
		t.Error("sub-unit job plan should error")
	}
}

// TestPartitionLimit pins the one home of the partition clamp: the fastest
// interruptible station needs at least one unit of effective task demand.
func TestPartitionLimit(t *testing.T) {
	for _, c := range []struct {
		j        float64
		template []FleetStation
		maxW     int
		want     int
	}{
		{j: 50, template: paperStations(1, 0.1), maxW: 200, want: 50},
		{j: 50.9, template: paperStations(1, 0.1), maxW: 200, want: 50},
		{j: 50, template: paperStations(1, 0.1), maxW: 20, want: 20},
		{j: 50, template: paperStations(1, 0), maxW: 200, want: 200},
		{j: 50, template: []FleetStation{{P: 0.1, Speed: 2, Count: 1}, {P: 0, Speed: 4, Count: 1}}, maxW: 200, want: 25},
	} {
		got, err := PartitionLimit(c.j, c.template, c.maxW)
		if err != nil || got != c.want {
			t.Errorf("PartitionLimit(%v, %v, %d) = %d, %v; want %d", c.j, c.template, c.maxW, got, err, c.want)
		}
	}
	if _, err := PartitionLimit(0.5, paperStations(1, 0.3), 100); err == nil {
		t.Error("sub-unit job should error")
	}
}
