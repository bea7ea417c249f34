// Package timeline promotes the workday machinery of internal/cluster to a
// query-answerable subsystem. The paper calibrated its model from uptime
// measured "over two working days" — a single stationary utilization — but
// owner activity at 2pm is nothing like 2am. A Profile is a
// piecewise-constant owner-utilization timeline (a repeating workday
// schedule, or a recorded trace that holds its final level); the package
// answers "how long does a job launched at offset t take?" two ways:
//
//   - QuasiStatic: the analytic approximation. Within each segment the job
//     completes at the stationary rate 1/E[job | util] of the paper's
//     discrete model (the fast core.BinomialTables kernel), and the
//     remaining completion fraction carries across segment boundaries. A
//     profile whose segments all share one utilization never changes rate,
//     so the answer reduces to the stationary analysis exactly.
//   - Replay: the empirical check. Each launch offset is replayed by
//     independent cluster.PhasedStation replications, whose owners switch
//     behaviour as the task crosses phase boundaries.
//
// internal/solve lowers phased Scenarios onto this package to answer the
// "timeline" query kind; keeping the mechanics here keeps solve free of
// cluster/DES plumbing and this package free of the query envelope.
package timeline

import (
	"fmt"
	"math"

	"feasim/internal/cluster"
	"feasim/internal/core"
	"feasim/internal/rng"
	"feasim/internal/stats"
)

// Segment is one span of a utilization profile: the owners run at Util for
// Duration time units.
type Segment struct {
	Name     string
	Duration float64
	Util     float64
}

// Profile is a piecewise-constant owner-utilization timeline. Cyclic
// profiles repeat forever (a workday schedule); non-cyclic ones are
// recorded traces whose last segment's utilization holds after the
// recording ends.
type Profile struct {
	Segments []Segment
	Cyclic   bool
}

// Validate checks the profile: at least one segment, positive durations,
// utilizations inside the model's [0,1) domain.
func (p Profile) Validate() error {
	if len(p.Segments) == 0 {
		return fmt.Errorf("timeline: profile needs at least one segment")
	}
	for i, seg := range p.Segments {
		if !(seg.Duration > 0) {
			return fmt.Errorf("timeline: segment %d (%s) needs a positive duration, got %v", i, seg.Name, seg.Duration)
		}
		if seg.Util < 0 || seg.Util >= 1 {
			return fmt.Errorf("timeline: segment %d (%s) needs utilization in [0,1), got %v", i, seg.Name, seg.Util)
		}
	}
	return nil
}

// Length is the duration of one cycle (or of the recorded trace).
func (p Profile) Length() float64 {
	var sum float64
	for _, seg := range p.Segments {
		sum += seg.Duration
	}
	return sum
}

// MeanUtilization is the duration-weighted utilization over one cycle.
func (p Profile) MeanUtilization() float64 {
	total := p.Length()
	if total <= 0 {
		return 0
	}
	var sum float64
	for _, seg := range p.Segments {
		sum += seg.Util * seg.Duration
	}
	return sum / total
}

// SegmentAt returns the segment active at absolute time t >= 0 and the time
// it ends. Cyclic profiles wrap modulo the cycle; past the end of a trace
// the last segment holds with an infinite end.
func (p Profile) SegmentAt(t float64) (Segment, float64) {
	total := p.Length()
	if !p.Cyclic && t >= total {
		return p.Segments[len(p.Segments)-1], math.Inf(1)
	}
	var base float64
	pos := t
	if p.Cyclic {
		base = math.Floor(t/total) * total
		pos = t - base
	}
	var acc float64
	for _, seg := range p.Segments {
		acc += seg.Duration
		if pos < acc {
			return seg, base + acc
		}
	}
	// Floating-point boundary: wrap (cyclic) or hold the last segment.
	if p.Cyclic {
		return p.Segments[0], base + total + p.Segments[0].Duration
	}
	return p.Segments[len(p.Segments)-1], math.Inf(1)
}

// MeanUtilizationOver is the duration-weighted utilization over [t0, t1] —
// the value a weighted-efficiency metric for a job spanning that window
// should divide by.
func (p Profile) MeanUtilizationOver(t0, t1 float64) float64 {
	if !(t1 > t0) {
		seg, _ := p.SegmentAt(t0)
		return seg.Util
	}
	var area float64
	t := t0
	for t < t1 {
		seg, end := p.SegmentAt(t)
		stop := math.Min(end, t1)
		if !(stop > t) {
			break
		}
		area += seg.Util * (stop - t)
		t = stop
	}
	return area / (t1 - t0)
}

// EpochStarts returns the launch offsets a timeline answer covers. With
// epochs > 0 the horizon is divided evenly; with epochs == 0 there is one
// launch at start plus one at every segment boundary inside the horizon. A
// zero horizon means one full cycle (or the recorded trace length).
func (p Profile) EpochStarts(start, horizon float64, epochs int) []float64 {
	if horizon <= 0 {
		horizon = p.Length()
	}
	if epochs > 0 {
		out := make([]float64, epochs)
		step := horizon / float64(epochs)
		for i := range out {
			out[i] = start + float64(i)*step
		}
		return out
	}
	out := []float64{start}
	t := start
	for {
		_, end := p.SegmentAt(t)
		if math.IsInf(end, 1) || end >= start+horizon {
			break
		}
		out = append(out, end)
		t = end
	}
	return out
}

// QuasiStatic answers launch-time questions analytically under the
// frozen-phase approximation: within each segment the job progresses at the
// stationary completion rate of the discrete model at that segment's
// utilization, and the unfinished fraction is carried across boundaries.
type QuasiStatic struct {
	Profile Profile
	J       float64
	W       int
	O       float64

	// uniform marks a profile whose segments all share one utilization: the
	// rate never changes, so the walk is skipped and the stationary E[job]
	// returned exactly (no boundary-splicing rounding), which is what makes
	// a single-phase schedule reproduce the stationary report bit-for-bit.
	uniform bool
	// memo caches the stationary E[job] per distinct utilization; workdays
	// hold a handful of utilizations but an answer may cover many epochs.
	memo map[float64]float64
}

// NewQuasiStatic builds the walker for a job of total demand j on w
// stations with owner burst demand o.
func NewQuasiStatic(p Profile, j float64, w int, o float64) (*QuasiStatic, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	uniform := true
	for _, seg := range p.Segments {
		if seg.Util != p.Segments[0].Util {
			uniform = false
			break
		}
	}
	return &QuasiStatic{Profile: p, J: j, W: w, O: o, uniform: uniform, memo: make(map[float64]float64)}, nil
}

// stationaryEJob is the discrete model's E[job] at utilization u.
func (qs *QuasiStatic) stationaryEJob(u float64) (float64, error) {
	if e, ok := qs.memo[u]; ok {
		return e, nil
	}
	p, err := core.ParamsFromUtilization(qs.J, qs.W, qs.O, u)
	if err != nil {
		return 0, err
	}
	res, err := core.Analyze(p.Fleet())
	if err != nil {
		return 0, err
	}
	qs.memo[u] = res.EJob
	return res.EJob, nil
}

// Epoch is the quasi-static answer for one launch offset.
type Epoch struct {
	// Start is the launch offset; Segment and LaunchUtil describe the
	// profile at that instant.
	Start      float64
	Segment    string
	LaunchUtil float64
	// MeanUtil is the duration-weighted utilization over the job's span.
	MeanUtil float64
	// EJob is the expected completion time of a job launched at Start.
	EJob float64
}

// maxWalkSegments bounds the boundary-splicing walk; a job that crosses a
// million segments without finishing signals a degenerate profile (e.g.
// microscopic durations against a huge job), not a real workday.
const maxWalkSegments = 1 << 20

// At computes the quasi-static completion of a job launched at offset t0.
func (qs *QuasiStatic) At(t0 float64) (Epoch, error) {
	seg0, _ := qs.Profile.SegmentAt(t0)
	ep := Epoch{Start: t0, Segment: seg0.Name, LaunchUtil: seg0.Util}
	if qs.uniform {
		e, err := qs.stationaryEJob(seg0.Util)
		if err != nil {
			return Epoch{}, err
		}
		ep.EJob = e
		ep.MeanUtil = seg0.Util
		return ep, nil
	}
	t := t0
	frac := 1.0 // unfinished fraction of the job
	var utilArea float64
	for i := 0; i < maxWalkSegments; i++ {
		seg, end := qs.Profile.SegmentAt(t)
		e, err := qs.stationaryEJob(seg.Util)
		if err != nil {
			return Epoch{}, err
		}
		if need := frac * e; need <= end-t {
			ep.EJob = t + need - t0
			utilArea += seg.Util * need
			if ep.EJob > 0 {
				ep.MeanUtil = utilArea / ep.EJob
			} else {
				ep.MeanUtil = seg.Util
			}
			return ep, nil
		}
		span := end - t
		frac -= span / e
		utilArea += seg.Util * span
		t = end
	}
	return Epoch{}, fmt.Errorf("timeline: job launched at %v does not finish within %d segments", t0, maxWalkSegments)
}

// traceHoldTail is the duration of the hold phase appended when lowering a
// trace onto the cyclic cluster.Schedule: long enough that no finite job
// ever wraps back into the recording.
const traceHoldTail = 1e15

// ClusterSchedule lowers the profile onto the cluster package's phase
// machinery: one phase per segment carrying the paper's Sun-ELC owner
// workload at the segment's utilization. A trace gets a final hold phase
// (the last segment's utilization, traceHoldTail long) so the cyclic phase
// arithmetic never replays the recording.
func (p Profile) ClusterSchedule(o float64) (cluster.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	segs := p.Segments
	if !p.Cyclic {
		hold := segs[len(segs)-1]
		hold.Name = "hold"
		hold.Duration = traceHoldTail
		segs = append(append([]Segment(nil), segs...), hold)
	}
	sched := make(cluster.Schedule, 0, len(segs))
	for i, seg := range segs {
		params, err := cluster.SunELCParams(o, seg.Util)
		if err != nil {
			return nil, fmt.Errorf("timeline: segment %d (%s): %w", i, seg.Name, err)
		}
		sched = append(sched, cluster.Phase{Name: seg.Name, Duration: seg.Duration, Params: params})
	}
	return sched, sched.Validate()
}

// ReplayResult summarizes one launch offset's DES replications.
type ReplayResult struct {
	// Mean is the empirical mean job time; CI its confidence interval.
	Mean    float64
	CI      stats.CI
	Samples int64
}

// Replay measures the empirical job time at one launch offset: reps
// independent replications, each running one task of the given demand on w
// phased stations starting at offset t0; the replication's job time is the
// slowest station's. Station streams are split from root by (replication,
// station), so the result is a pure function of (sched, w, demand, t0,
// reps, root seed).
func Replay(sched cluster.Schedule, w int, demand, t0 float64, reps int, level float64, root *rng.Stream) (ReplayResult, error) {
	if w < 1 {
		return ReplayResult{}, fmt.Errorf("timeline: replay needs at least one station, got %d", w)
	}
	if reps < 2 {
		return ReplayResult{}, fmt.Errorf("timeline: replay needs at least 2 replications, got %d", reps)
	}
	var sum stats.Summary
	for r := 0; r < reps; r++ {
		rs := root.Split(uint64(r))
		var jobTime float64
		for i := 0; i < w; i++ {
			st, err := cluster.NewPhasedStation(fmt.Sprintf("w%d", i), sched, rs.Split(uint64(i)))
			if err != nil {
				return ReplayResult{}, err
			}
			if rec := st.RunTaskAt(t0, demand); rec.Elapsed > jobTime {
				jobTime = rec.Elapsed
			}
		}
		sum.Add(jobTime)
	}
	return ReplayResult{Mean: sum.Mean(), CI: sum.MeanCI(level), Samples: sum.N()}, nil
}
