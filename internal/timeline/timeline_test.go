package timeline

import (
	"math"
	"strings"
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

// segmentAt seeks a cursor to t and returns the active segment and its end.
func segmentAt(p Profile, t float64) (Segment, float64) {
	c := seek(p.prefixSums(), p.Cyclic, t)
	return p.Segments[c.seg()], c.end
}

func TestSegmentAtCyclicAndTrace(t *testing.T) {
	p := workday()
	seg, end := segmentAt(p, 0)
	if seg.Name != "morning" || end != 480 {
		t.Fatalf("t=0: got %q end %v", seg.Name, end)
	}
	seg, end = segmentAt(p, 500)
	if seg.Name != "afternoon" || end != 960 {
		t.Fatalf("t=500: got %q end %v", seg.Name, end)
	}
	// A boundary belongs to the segment it starts.
	seg, end = segmentAt(p, 1440)
	if seg.Name != "morning" || end != 1440+480 {
		t.Fatalf("t=1440: got %q end %v", seg.Name, end)
	}
	// One full cycle later the same segment is active, ending a cycle later.
	seg, end = segmentAt(p, 500+1440)
	if seg.Name != "afternoon" || end != 960+1440 {
		t.Fatalf("t=1940: got %q end %v", seg.Name, end)
	}

	tr := workday()
	tr.Cyclic = false
	seg, end = segmentAt(tr, 2000) // past the recorded 1440: last segment holds
	if seg.Name != "night" || !math.IsInf(end, 1) {
		t.Fatalf("trace past end: got %q end %v", seg.Name, end)
	}
	// Crossing into the hold segment is a step with an infinite end; the
	// hold is the last segment.
	c := seek(tr.prefixSums(), false, 1000)
	if c.seg() != 2 || c.end != 1440 {
		t.Fatalf("trace at 1000: segment %d end %v", c.seg(), c.end)
	}
	c.next()
	if c.seg() != 2 || !math.IsInf(c.end, 1) {
		t.Fatalf("trace hold: segment %d end %v", c.seg(), c.end)
	}
	c.next()
	if !math.IsInf(c.end, 1) {
		t.Fatalf("hold must stay put, end %v", c.end)
	}
}

// TestCursorFractionalBoundaries pins the stall the cursor removes: at
// 0.1/0.2/0.3 the float position recomputed from t rounds to just below a
// boundary, so a lookup by time can return the segment that just ended.
// The cursor seeks past such an end and then steps by index.
func TestCursorFractionalBoundaries(t *testing.T) {
	p := Profile{Cyclic: true, Segments: []Segment{
		{Name: "a", Duration: 0.1, Util: 0.1},
		{Name: "b", Duration: 0.2, Util: 0.3},
		{Name: "c", Duration: 0.3, Util: 0.5},
	}}
	prefix := p.prefixSums()
	c := seek(prefix, true, 0)
	names := ""
	for i := 0; i < 3000; i++ {
		prev := c.end
		c.next()
		if !(c.end > prev) {
			t.Fatalf("step %d: end %v after %v", i, c.end, prev)
		}
		// Seeking to a boundary lands on the segment that starts there.
		if s := seek(prefix, true, prev); s.k != c.k || s.i != c.i || s.end != c.end {
			t.Fatalf("seek(%v) = cycle %v segment %d end %v, stepped to cycle %v segment %d end %v", prev, s.k, s.i, s.end, c.k, c.i, c.end)
		}
		if i < 6 {
			names += p.Segments[c.seg()].Name
		}
	}
	if names != "bcabca" {
		t.Fatalf("segment order %q", names)
	}
	// The offset the old lookup stalled on: segment a of the second cycle
	// ends after it, not at it.
	if c := seek(prefix, true, 0.70000000000000007); !(c.end > 0.70000000000000007) {
		t.Fatalf("seek(0.7): segment %d ends at %v", c.i, c.end)
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
	got, err := p.EpochStarts(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err = p.EpochStarts(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// TestEpochStartsCap: more than MaxEpochs launch offsets is an error in
// either form, before the offsets are allocated.
func TestEpochStartsCap(t *testing.T) {
	p := workday()
	if got, err := p.EpochStarts(0, 0, MaxEpochs); err != nil || len(got) != MaxEpochs {
		t.Fatalf("epochs at the cap: %d offsets, %v", len(got), err)
	}
	if _, err := p.EpochStarts(0, 0, 1_000_000_000); err == nil {
		t.Fatal("a billion epochs should be refused")
	}
	// 480 units per boundary: a horizon of MaxEpochs-1 boundaries fits, one
	// more does not.
	if got, err := p.EpochStarts(0, 480*(MaxEpochs-1)+1, 0); err != nil || len(got) != MaxEpochs {
		t.Fatalf("boundaries at the cap: %d offsets, %v", len(got), err)
	}
	if _, err := p.EpochStarts(0, 480*MaxEpochs+1, 0); err == nil {
		t.Fatal("a horizon past the cap should be refused")
	}
	// The refusal allocates the prefix sums and the error, never offsets:
	// appending 65536 of them would grow a slice some 20 times.
	if allocs := testing.AllocsPerRun(10, func() { p.EpochStarts(0, 1e9, 0) }); allocs > 8 {
		t.Fatalf("a refused walk allocated %v times", allocs)
	}
	if _, err := p.EpochStarts(1e300, 0, 1); err == nil {
		t.Fatal("an offset beyond 2^50 cycles should be refused")
	}
	// A trace holds its last level: the recording's end is its last
	// boundary.
	tr := workday()
	tr.Cyclic = false
	if got, err := tr.EpochStarts(0, 1e300, 0); err != nil || len(got) != 4 || got[3] != 1440 {
		t.Fatalf("trace boundaries %v, %v", got, err)
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

// TestQuasiStaticManyBoundaries: a job crossing many short cycles walks
// one cycle and skips the rest by cycle index, so even a job that crosses
// more than a million boundaries answers, at the fast-switching limit.
func TestQuasiStaticManyBoundaries(t *testing.T) {
	for _, dur := range []float64{1, 1e-3} {
		p := Profile{Cyclic: true, Segments: []Segment{
			{Name: "a", Duration: dur, Util: 0.2},
			{Name: "b", Duration: dur, Util: 0.05},
		}}
		qs, err := NewQuasiStatic(p, 4000, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := qs.At(0)
		if err != nil {
			t.Fatal(err)
		}
		// The job takes ~1000+ time units; its mean util must sit between
		// the two segment levels, and its time within a cycle of the
		// fast-switching rate 2·dur / (dur/E_a + dur/E_b).
		if ep.EJob <= 1000 || ep.MeanUtil <= 0.05 || ep.MeanUtil >= 0.2 {
			t.Fatalf("dur %v: E[job] %v mean util %v", dur, ep.EJob, ep.MeanUtil)
		}
		limit := 2 / (1/qs.mustEJob(t, 0.2) + 1/qs.mustEJob(t, 0.05))
		if math.Abs(ep.EJob-limit) > 2*dur {
			t.Fatalf("dur %v: E[job] %v, fast-switching limit %v", dur, ep.EJob, limit)
		}
	}
}

func TestReplayDeterministicAndDedicated(t *testing.T) {
	p := workday()
	a, err := Replay(p, 10, 4, 100, 480, 50, 0.9, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(p, 10, 4, 100, 480, 50, 0.9, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.EJob != b.EJob || a.Samples != 50 {
		t.Fatalf("replay not deterministic: %v vs %v (n=%d)", a.EJob, b.EJob, a.Samples)
	}
	if a.EJob < 100 {
		t.Fatalf("mean job time %v below the dedicated bound", a.EJob)
	}
	if a.Segment != "afternoon" || a.LaunchUtil != 0.3 || a.Start != 480 {
		t.Fatalf("launch segment %q util %v start %v", a.Segment, a.LaunchUtil, a.Start)
	}
	if want := p.MeanUtilizationOver(480, 480+a.EJob); a.MeanUtil != want {
		t.Fatalf("span mean util %v, want %v", a.MeanUtil, want)
	}

	// An all-idle profile is exactly the dedicated system: every
	// replication's job time is the task demand.
	idle := Profile{Cyclic: true, Segments: []Segment{{Name: "idle", Duration: 100, Util: 0}}}
	r, err := Replay(idle, 10, 4, 100, 0, 10, 0.9, rng.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.EJob != 100 || r.CI.HalfWidth != 0 {
		t.Fatalf("dedicated replay: mean %v halfwidth %v", r.EJob, r.CI.HalfWidth)
	}
}

func TestReplayRejectsBadArgs(t *testing.T) {
	p := workday()
	if _, err := Replay(p, 10, 0, 100, 0, 10, 0.9, rng.NewStream(1)); err == nil {
		t.Error("w=0 should error")
	}
	if _, err := Replay(p, 10, 4, 100, 0, 1, 0.9, rng.NewStream(1)); err == nil {
		t.Error("reps=1 should error")
	}
	// At o = 0.3 a 30% owner would need a request probability above one.
	if _, err := Replay(p, 0.3, 4, 100, 0, 10, 0.9, rng.NewStream(1)); err == nil || !strings.Contains(err.Error(), "segment 1 (afternoon)") {
		t.Errorf("unreachable utilization should name its segment, got %v", err)
	}
}
