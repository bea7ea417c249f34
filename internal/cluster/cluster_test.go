package cluster

import (
	"math"
	"testing"

	"feasim/internal/core"
	"feasim/internal/rng"
	"feasim/internal/stats"
)

func elcParams(t *testing.T, o, util float64) StationParams {
	t.Helper()
	p, err := SunELCParams(o, util)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSunELCParamsUtilization(t *testing.T) {
	for _, util := range []float64{0.01, 0.03, 0.1, 0.2} {
		p := elcParams(t, 10, util)
		if got := p.Utilization(); math.Abs(got-util) > 1e-9 {
			t.Errorf("configured utilization %v, want %v", got, util)
		}
	}
	ded := elcParams(t, 10, 0)
	if ded.Utilization() != 0 {
		t.Error("dedicated params should have zero utilization")
	}
	if _, err := SunELCParams(10, 1.0); err == nil {
		t.Error("utilization 1.0 should fail")
	}
	if _, err := SunELCParams(0.5, 0.9); err == nil {
		t.Error("unreachable utilization at unit granularity should fail")
	}
}

func TestStationDedicatedRunsAtSpeed(t *testing.T) {
	c, err := New(1, elcParams(t, 10, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Station(0)
	rec := st.RunTask(120)
	if rec.Elapsed != 120 || rec.Bursts != 0 || rec.OwnerTime != 0 {
		t.Errorf("dedicated run: %+v", rec)
	}
}

func TestStationInterferenceSlowdown(t *testing.T) {
	// At 10% owner utilization the mean task stretch should be close to the
	// theoretical 1/(1-U) (renewal-reward argument for wall-clock owners).
	p := elcParams(t, 10, 0.10)
	c, err := New(1, p, 42)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Station(0)
	var sum stats.Summary
	const demand = 1000.0
	for i := 0; i < 400; i++ {
		sum.Add(st.RunTask(demand).Elapsed)
	}
	stretch := sum.Mean() / demand
	want := 1 / 0.9
	if math.Abs(stretch-want) > 0.02*want {
		t.Errorf("mean stretch %.4f, want about %.4f", stretch, want)
	}
}

func TestStationRecordsConsistent(t *testing.T) {
	p := elcParams(t, 10, 0.2)
	c, _ := New(1, p, 7)
	st, _ := c.Station(0)
	for i := 0; i < 50; i++ {
		rec := st.RunTask(100)
		if math.Abs(rec.Elapsed-(rec.Demand+rec.OwnerTime)) > 1e-9 {
			t.Fatalf("elapsed %.4f != demand %.4f + owner %.4f", rec.Elapsed, rec.Demand, rec.OwnerTime)
		}
		if rec.OwnerTime < 0 || rec.Bursts < 0 {
			t.Fatalf("negative interference: %+v", rec)
		}
		if rec.Bursts == 0 && rec.OwnerTime != 0 {
			t.Fatalf("owner time without bursts: %+v", rec)
		}
	}
}

// TestTraceTilesTheTimeline: with deterministic think Z and burst B, the
// owner/task walk is known exactly. Compute slices of Z alternate with
// bursts of B, so [0, Elapsed] is tiled by ceil(D/Z)-1 bursts and the demand.
func TestTraceTilesTheTimeline(t *testing.T) {
	const think, burst = 4.0, 1.5
	p := StationParams{OwnerThink: rng.Deterministic{V: think}, OwnerDemand: rng.Deterministic{V: burst}}
	c, err := New(1, p, 13)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Station(0)
	for _, demand := range []float64{0.5, 4, 10, 12, 500} {
		rec := st.RunTask(demand)
		bursts := int(math.Ceil(demand/think)) - 1
		if rec.Bursts != bursts {
			t.Errorf("demand %v: %d bursts, want %d", demand, rec.Bursts, bursts)
		}
		if want := float64(bursts) * burst; math.Abs(rec.OwnerTime-want) > 1e-9 {
			t.Errorf("demand %v: owner time %v, want %v", demand, rec.OwnerTime, want)
		}
		if want := demand + float64(bursts)*burst; math.Abs(rec.Elapsed-want) > 1e-9 {
			t.Errorf("demand %v: elapsed %v, want %v", demand, rec.Elapsed, want)
		}
	}
}

func TestStationZeroDemand(t *testing.T) {
	p := elcParams(t, 10, 0.1)
	c, _ := New(1, p, 9)
	st, _ := c.Station(0)
	rec := st.RunTask(0)
	// A zero-demand task may still wait out a residual burst when it lands
	// mid-burst (stationary start), but absent that it finishes instantly.
	if rec.Elapsed != rec.OwnerTime {
		t.Errorf("zero-demand task computed: %+v", rec)
	}
}

func TestStationNegativeDemandPanics(t *testing.T) {
	p := elcParams(t, 10, 0.1)
	c, _ := New(1, p, 9)
	st, _ := c.Station(0)
	// An infinite demand would otherwise walk forever: Inf - slice == Inf.
	for _, demand := range []float64{-1, math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("demand %v should panic", demand)
				}
			}()
			st.RunTask(demand)
		}()
	}
}

func TestClusterConstruction(t *testing.T) {
	if _, err := New(0, elcParams(t, 10, 0.1), 1); err == nil {
		t.Error("empty cluster should fail")
	}
	if _, err := NewHeterogeneous(nil, 1); err == nil {
		t.Error("nil station list should fail")
	}
	if _, err := NewHeterogeneous([]StationParams{{}}, 1); err == nil {
		t.Error("invalid station params should fail")
	}
	c, err := New(3, elcParams(t, 10, 0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Errorf("Size = %d", c.Size())
	}
	if _, err := c.Station(3); err == nil {
		t.Error("out-of-range station should fail")
	}
	st, err := c.Station(2)
	if err != nil || st.Name() != "elc2" {
		t.Errorf("station 2: %v %v", st, err)
	}
}

func TestClusterStationsIndependent(t *testing.T) {
	// Two stations with identical params must see different owner arrivals
	// (independent split streams).
	c, _ := New(2, elcParams(t, 10, 0.2), 5)
	a, _ := c.Station(0)
	b, _ := c.Station(1)
	same := 0
	for i := 0; i < 20; i++ {
		ra, rb := a.RunTask(100), b.RunTask(100)
		if ra.Elapsed == rb.Elapsed {
			same++
		}
	}
	if same > 10 {
		t.Errorf("stations look correlated: %d/20 identical task times", same)
	}
}

func TestHeterogeneousUtilizations(t *testing.T) {
	params := []StationParams{
		elcParams(t, 10, 0.05),
		elcParams(t, 10, 0.25),
	}
	c, err := NewHeterogeneous(params, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.05, 0.25} {
		st, err := c.Station(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Params().Utilization(); math.Abs(got-want) > 1e-9 {
			t.Errorf("station %d configured utilization %v, want %v", i, got, want)
		}
	}
}

// TestStationMeanMatchesModel compares the station's mean task elapsed time
// against the analytic E_t at the paper's experimental operating point (3%
// utilization): the station is the "real system" the model bounds, so the
// mean should be close to — and no less than — the model's optimistic
// prediction.
func TestStationMeanMatchesModel(t *testing.T) {
	const (
		o    = 10.0
		util = 0.03
		dem  = 960.0 // the paper's 16-minute problem on one workstation
	)
	c, _ := New(1, elcParams(t, o, util), 99)
	st, _ := c.Station(0)
	var sum stats.Summary
	for i := 0; i < 800; i++ {
		sum.Add(st.RunTask(dem).Elapsed)
	}
	p, err := core.ParamsFromUtilization(dem, 1, o, util)
	if err != nil {
		t.Fatal(err)
	}
	ana := core.MustAnalyze(p.Fleet())
	if rel := math.Abs(sum.Mean()-ana.ETask) / ana.ETask; rel > 0.03 {
		t.Errorf("station mean %.2f vs model E_t %.2f (rel %.4f)", sum.Mean(), ana.ETask, rel)
	}
	if sum.Mean() < ana.ETask*0.995 {
		t.Errorf("real system beat the optimistic model meaningfully: %.2f < %.2f", sum.Mean(), ana.ETask)
	}
}
