package timeline

import (
	"math"
	"testing"

	"feasim/internal/core"
	"feasim/internal/rng"
)

func workday() Profile {
	return Profile{
		Cyclic: true,
		Segments: []Segment{
			{Name: "morning", Duration: 480, Util: 0.15},
			{Name: "afternoon", Duration: 480, Util: 0.3},
			{Name: "night", Duration: 480, Util: 0.02},
		},
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
	}{
		{"empty", Profile{}},
		{"zero duration", Profile{Segments: []Segment{{Duration: 0, Util: 0.1}}}},
		{"negative duration", Profile{Segments: []Segment{{Duration: -5, Util: 0.1}}}},
		{"util one", Profile{Segments: []Segment{{Duration: 10, Util: 1}}}},
		{"util negative", Profile{Segments: []Segment{{Duration: 10, Util: -0.1}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := workday().Validate(); err != nil {
		t.Fatalf("workday should validate: %v", err)
	}
}

func TestSegmentAtCyclicAndTrace(t *testing.T) {
	p := workday()
	seg, end := p.SegmentAt(0)
	if seg.Name != "morning" || end != 480 {
		t.Fatalf("t=0: got %q end %v", seg.Name, end)
	}
	seg, end = p.SegmentAt(500)
	if seg.Name != "afternoon" || end != 960 {
		t.Fatalf("t=500: got %q end %v", seg.Name, end)
	}
	// One full cycle later the same segment is active, ending a cycle later.
	seg, end = p.SegmentAt(500 + 1440)
	if seg.Name != "afternoon" || end != 960+1440 {
		t.Fatalf("t=1940: got %q end %v", seg.Name, end)
	}

	tr := workday()
	tr.Cyclic = false
	seg, end = tr.SegmentAt(2000) // past the recorded 1440: last segment holds
	if seg.Name != "night" || !math.IsInf(end, 1) {
		t.Fatalf("trace past end: got %q end %v", seg.Name, end)
	}
}

func TestMeanUtilization(t *testing.T) {
	p := workday()
	want := (0.15*480 + 0.3*480 + 0.02*480) / 1440
	if got := p.MeanUtilization(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean util %v, want %v", got, want)
	}
	// Over exactly the afternoon the mean is the afternoon's util.
	if got := p.MeanUtilizationOver(480, 960); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("afternoon mean util %v", got)
	}
	// Half morning, half afternoon.
	if got := p.MeanUtilizationOver(240, 720); math.Abs(got-(0.15+0.3)/2) > 1e-12 {
		t.Fatalf("straddling mean util %v", got)
	}
}

func TestEpochStarts(t *testing.T) {
	p := workday()
	// Evenly spaced epochs.
	got := p.EpochStarts(0, 0, 4)
	want := []float64{0, 360, 720, 1080}
	if len(got) != len(want) {
		t.Fatalf("epochs %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epochs %v, want %v", got, want)
		}
	}
	// Default: one launch per segment boundary within one cycle.
	got = p.EpochStarts(0, 0, 0)
	want = []float64{0, 480, 960}
	if len(got) != len(want) {
		t.Fatalf("boundary epochs %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundary epochs %v, want %v", got, want)
		}
	}
}

// TestQuasiStaticUniformIsStationary pins the acceptance criterion: a
// profile at one constant utilization reproduces the stationary E[job]
// exactly, at any launch offset.
func TestQuasiStaticUniformIsStationary(t *testing.T) {
	p := Profile{Cyclic: true, Segments: []Segment{{Name: "flat", Duration: 100, Util: 0.1}}}
	qs, err := NewQuasiStatic(p, 400, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	params, err := core.ParamsFromUtilization(400, 4, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(params.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	for _, t0 := range []float64{0, 37.5, 99.9, 250} {
		ep, err := qs.At(t0)
		if err != nil {
			t.Fatal(err)
		}
		if ep.EJob != res.EJob {
			t.Fatalf("launch %v: quasi-static %v != stationary %v", t0, ep.EJob, res.EJob)
		}
		if ep.MeanUtil != 0.1 {
			t.Fatalf("launch %v: mean util %v", t0, ep.MeanUtil)
		}
	}
}

// TestQuasiStaticSplice checks the boundary-splicing arithmetic against a
// hand-computed two-segment crossing.
func TestQuasiStaticSplice(t *testing.T) {
	p := Profile{Cyclic: true, Segments: []Segment{
		{Name: "busy", Duration: 50, Util: 0.3},
		{Name: "idle", Duration: 1000, Util: 0},
	}}
	qs, err := NewQuasiStatic(p, 400, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	eBusy := qs.mustEJob(t, 0.3)
	// Launched at 0 the job spends the 50 busy units completing 50/eBusy of
	// itself, then finishes at the dedicated rate (E[job] = J/W = 100).
	ep, err := qs.At(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 + (1-50/eBusy)*100
	if math.Abs(ep.EJob-want) > 1e-9 {
		t.Fatalf("spliced E[job] %v, want %v", ep.EJob, want)
	}
	wantUtil := 0.3 * 50 / ep.EJob
	if math.Abs(ep.MeanUtil-wantUtil) > 1e-9 {
		t.Fatalf("span mean util %v, want %v", ep.MeanUtil, wantUtil)
	}
	// Launched in the idle stretch with room to spare, the job is purely
	// dedicated.
	ep, err = qs.At(100)
	if err != nil {
		t.Fatal(err)
	}
	if ep.EJob != 100 || ep.MeanUtil != 0 {
		t.Fatalf("idle launch: E[job] %v mean util %v", ep.EJob, ep.MeanUtil)
	}
}

func (qs *QuasiStatic) mustEJob(t *testing.T, u float64) float64 {
	t.Helper()
	e, err := qs.stationaryEJob(u)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQuasiStaticDegenerateProfile exercises the walk bound: a microscopic
// cycle against a huge job crosses segments forever without the job ever
// finishing a segment's worth — the walk must still terminate (the rates
// repeat, so it finishes) or error, never hang.
func TestQuasiStaticManyBoundaries(t *testing.T) {
	p := Profile{Cyclic: true, Segments: []Segment{
		{Name: "a", Duration: 1, Util: 0.2},
		{Name: "b", Duration: 1, Util: 0.05},
	}}
	qs, err := NewQuasiStatic(p, 4000, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := qs.At(0)
	if err != nil {
		t.Fatal(err)
	}
	// The job takes ~1000+ time units, crossing ~1000 boundaries; its mean
	// util must sit between the two segment levels.
	if ep.EJob <= 1000 || ep.MeanUtil <= 0.05 || ep.MeanUtil >= 0.2 {
		t.Fatalf("many-boundary walk: E[job] %v mean util %v", ep.EJob, ep.MeanUtil)
	}
}

func TestClusterScheduleLowering(t *testing.T) {
	p := workday()
	sched, err := p.ClusterSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 || sched[0].Name != "morning" || sched[2].Duration != 480 {
		t.Fatalf("schedule %+v", sched)
	}
	if got := sched.MeanUtilization(); math.Abs(got-p.MeanUtilization()) > 1e-9 {
		t.Fatalf("lowered mean util %v, want %v", got, p.MeanUtilization())
	}
	// A trace grows a hold tail so the cyclic arithmetic never replays it.
	tr := workday()
	tr.Cyclic = false
	sched, err = tr.ClusterSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 4 || sched[3].Name != "hold" || sched[3].Duration != traceHoldTail {
		t.Fatalf("trace schedule %+v", sched)
	}
}

func TestReplayDeterministicAndDedicated(t *testing.T) {
	p := workday()
	sched, err := p.ClusterSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Replay(sched, 4, 100, 480, 50, 0.9, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(sched, 4, 100, 480, 50, 0.9, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Samples != 50 {
		t.Fatalf("replay not deterministic: %v vs %v (n=%d)", a.Mean, b.Mean, a.Samples)
	}
	if a.Mean < 100 {
		t.Fatalf("mean job time %v below the dedicated bound", a.Mean)
	}

	// An all-idle profile is exactly the dedicated system: every
	// replication's job time is the task demand.
	idle := Profile{Cyclic: true, Segments: []Segment{{Name: "idle", Duration: 100, Util: 0}}}
	ds, err := idle.ClusterSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Replay(ds, 4, 100, 0, 10, 0.9, rng.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean != 100 || r.CI.HalfWidth != 0 {
		t.Fatalf("dedicated replay: mean %v halfwidth %v", r.Mean, r.CI.HalfWidth)
	}
}

func TestReplayRejectsBadArgs(t *testing.T) {
	sched, err := workday().ClusterSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(sched, 0, 100, 0, 10, 0.9, rng.NewStream(1)); err == nil {
		t.Error("w=0 should error")
	}
	if _, err := Replay(sched, 4, 100, 0, 1, 0.9, rng.NewStream(1)); err == nil {
		t.Error("reps=1 should error")
	}
}
