package timeline

import (
	"math"
	"testing"

	"feasim/internal/cluster"
	"feasim/internal/rng"
	"feasim/internal/stats"
)

// dayNight is an 8-hour busy day at 25% and a 16-hour quiet night at 2% (in
// seconds).
func dayNight() Profile {
	return Profile{Cyclic: true, Segments: []Segment{
		{Name: "day", Duration: 8 * 3600, Util: 0.25},
		{Name: "night", Duration: 16 * 3600, Util: 0.02},
	}}
}

func newDayNightStation(t *testing.T, seed uint64) *PhasedStation {
	t.Helper()
	st, err := NewPhasedStation("ws", dayNight(), 10, rng.NewStream(seed))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPhasedStationRejectsInvalidProfile(t *testing.T) {
	if _, err := NewPhasedStation("s", Profile{}, 10, rng.NewStream(1)); err == nil {
		t.Error("an empty profile should fail")
	}
	bad := Profile{Segments: []Segment{{Name: "x", Duration: 0, Util: 0.1}}}
	if _, err := NewPhasedStation("s", bad, 10, rng.NewStream(1)); err == nil {
		t.Error("a zero-duration segment should fail")
	}
}

// TestPhasedStationParams: each segment runs the paper's Sun-ELC owner at
// its own utilization; a trace adds no segment of its own for the hold.
func TestPhasedStationParams(t *testing.T) {
	for _, cyclic := range []bool{true, false} {
		p := workday()
		p.Cyclic = cyclic
		st, err := NewPhasedStation("ws", p, 10, rng.NewStream(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.params) != len(p.Segments) {
			t.Fatalf("cyclic=%v: %d owner workloads for %d segments", cyclic, len(st.params), len(p.Segments))
		}
		for i, seg := range p.Segments {
			want, err := cluster.SunELCParams(10, seg.Util)
			if err != nil {
				t.Fatal(err)
			}
			if st.params[i] != want {
				t.Fatalf("segment %d: params %+v, want %+v", i, st.params[i], want)
			}
			if got := st.params[i].Utilization(); math.Abs(got-seg.Util) > 1e-12 {
				t.Fatalf("segment %d: owner utilization %v, want %v", i, got, seg.Util)
			}
		}
	}
}

func TestNightTasksFasterThanDayTasks(t *testing.T) {
	st := newDayNightStation(t, 7)
	var day, night stats.Summary
	const demand = 1800 // 30 minutes: fits inside either phase
	for i := 0; i < 300; i++ {
		day.Add(st.RunTaskAt(0, demand).Elapsed)         // 8am start
		night.Add(st.RunTaskAt(10*3600, demand).Elapsed) // 6pm start
	}
	if night.Mean() >= day.Mean() {
		t.Errorf("night tasks (%.1f) should beat day tasks (%.1f)", night.Mean(), day.Mean())
	}
	// Day slowdown should be near 1/(1-0.25); night near 1/(1-0.02).
	dayStretch := day.Mean() / demand
	if math.Abs(dayStretch-1/0.75) > 0.05 {
		t.Errorf("day stretch %.3f, want about %.3f", dayStretch, 1/0.75)
	}
	nightStretch := night.Mean() / demand
	if math.Abs(nightStretch-1/0.98) > 0.03 {
		t.Errorf("night stretch %.3f, want about %.3f", nightStretch, 1/0.98)
	}
}

func TestTaskCrossingPhaseBoundary(t *testing.T) {
	// A task started one hour before dawn (night→day boundary at 24h)
	// experiences quiet time first, then the busy day: its stretch should
	// land between the two phases' stretches.
	st := newDayNightStation(t, 9)
	var cross stats.Summary
	const demand = 2 * 3600 // two hours of compute
	for i := 0; i < 200; i++ {
		cross.Add(st.RunTaskAt(23*3600, demand).Elapsed)
	}
	stretch := cross.Mean() / demand
	if stretch <= 1.0/0.98-0.005 || stretch >= 1/0.75 {
		t.Errorf("boundary-crossing stretch %.3f should lie between night and day stretches", stretch)
	}
}

func TestPhasedStationRecordConsistency(t *testing.T) {
	st := newDayNightStation(t, 11)
	for i := 0; i < 50; i++ {
		rec := st.RunTaskAt(float64(i)*1000, 500)
		if math.Abs(rec.Elapsed-(rec.Demand+rec.OwnerTime)) > 1e-9 {
			t.Fatalf("record inconsistent: %+v", rec)
		}
		if rec.Station != "ws" {
			t.Fatalf("record station %q", rec.Station)
		}
	}
}

func TestPhasedStationNegativeDemandPanics(t *testing.T) {
	st := newDayNightStation(t, 13)
	defer func() {
		if recover() == nil {
			t.Error("negative demand should panic")
		}
	}()
	st.RunTaskAt(0, -1)
}
