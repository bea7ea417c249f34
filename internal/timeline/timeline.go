// Package timeline answers launch-time questions over a nonstationary
// owner workload. The paper calibrated its model from uptime measured "over
// two working days" — a single stationary utilization — but owner activity
// at 2pm is nothing like 2am. A Profile is a piecewise-constant
// owner-utilization timeline (a repeating workday schedule, or a recorded
// trace that holds its final level); the package answers "how long does a
// job launched at offset t take?" two ways:
//
//   - QuasiStatic: the analytic approximation. Within each segment the job
//     completes at the stationary rate 1/E[job | util] of the paper's
//     discrete model (the fast core.BinomialTables kernel), and the
//     remaining completion fraction carries across segment boundaries. A
//     profile whose segments all share one utilization never changes rate,
//     so the answer reduces to the stationary analysis exactly.
//   - Replay: the empirical check. Each launch offset is replayed by
//     independent PhasedStation replications, whose owners run the paper's
//     Sun-ELC workload at each segment's utilization and switch behaviour
//     as the task crosses segment boundaries.
//
// internal/solve lowers phased Scenarios onto this package to answer the
// "timeline" query kind; keeping the mechanics here keeps solve free of
// cluster/DES plumbing and this package free of the query envelope.
package timeline

import (
	"fmt"
	"math"
	"sort"

	"feasim/internal/core"
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

// prefixSums returns the segment durations summed left to right: prefix[i]
// is where segment i starts within a cycle and prefix[len(Segments)] is
// Length.
func (p Profile) prefixSums() []float64 {
	prefix := make([]float64, len(p.Segments)+1)
	for i, seg := range p.Segments {
		prefix[i+1] = prefix[i] + seg.Duration
	}
	return prefix
}

// maxCycles bounds the cycle index a cursor seeks to. Below it k+1 is exact
// and consecutive cycles start about a cycle length apart in floating
// point, so every cursor step moves forward.
const maxCycles = 1 << 50

// A cursor walks a profile's segments in time order: segment i of cycle k
// ends at k·total + prefix[i+1]. It advances by index, never recomputing
// its position from a float time, which at a fractional boundary can round
// back into the segment that just ended (end == t, a walk that never
// moves). A trace ends in a hold segment: the last one, ending at +Inf.
type cursor struct {
	prefix []float64 // Profile.prefixSums
	cyclic bool
	k      float64 // cycle index; always 0 for a trace
	i      int     // segment index; len(prefix)-1 is a trace's hold segment
	end    float64 // when segment i ends
}

// seek returns the cursor at the segment active at time t, the first whose
// end lies after t. A cyclic t must lie within maxCycles cycles (EpochStarts
// checks the offsets it hands out).
func seek(prefix []float64, cyclic bool, t float64) cursor {
	n := len(prefix) - 1
	c := cursor{prefix: prefix, cyclic: cyclic}
	if cyclic {
		if c.k = math.Floor(t / prefix[n]); !(c.k < maxCycles) {
			panic(fmt.Sprintf("timeline: offset %v lies beyond 2^50 cycles of the profile", t))
		}
	}
	base := c.k * prefix[n]
	c.at(sort.Search(n, func(i int) bool { return base+prefix[i+1] > t }))
	// Rounding may leave t on or past the found end: step forward.
	for c.end <= t && c.i < n {
		c.next()
	}
	return c
}

// at moves the cursor to segment i of its cycle; i == n wraps a cyclic
// profile into the next cycle and holds a trace.
func (c *cursor) at(i int) {
	n := len(c.prefix) - 1
	switch {
	case i < n:
		c.i, c.end = i, c.k*c.prefix[n]+c.prefix[i+1]
	case c.cyclic:
		c.k++
		c.i, c.end = 0, c.k*c.prefix[n]+c.prefix[1]
	default:
		c.i, c.end = n, math.Inf(1)
	}
}

// next steps to the following segment, and past any segment too short to
// resolve this far into the profile, so every step moves forward. It
// leaves the hold segment in place.
func (c *cursor) next() {
	n := len(c.prefix) - 1
	for prev := c.end; c.end <= prev && c.i < n; {
		c.at(c.i + 1)
	}
}

// seg is the index of the active segment; the hold segment is the last.
func (c *cursor) seg() int { return min(c.i, len(c.prefix)-2) }

// MeanUtilizationOver is the duration-weighted utilization over [t0, t1] —
// the value a weighted-efficiency metric for a job spanning that window
// should divide by.
func (p Profile) MeanUtilizationOver(t0, t1 float64) float64 {
	c := seek(p.prefixSums(), p.Cyclic, t0)
	if !(t1 > t0) {
		return p.Segments[c.seg()].Util
	}
	var area float64
	for t := t0; t < t1; c.next() {
		stop := math.Min(c.end, t1)
		area += p.Segments[c.seg()].Util * (stop - t)
		t = stop
	}
	return area / (t1 - t0)
}

// MaxEpochs caps the launch offsets one timeline answer covers. A request
// body small enough to serve cannot list a trace with more boundaries, and
// the cap bounds both a large epoch count and epochs == 0 over a long
// horizon.
const MaxEpochs = 1 << 16

// EpochStarts returns the launch offsets a timeline answer covers. With
// epochs > 0 the horizon is divided evenly; with epochs == 0 there is one
// launch at start plus one at every segment boundary inside the horizon. A
// zero horizon means one full cycle (or the recorded trace length). More
// than MaxEpochs offsets, or a cyclic horizon ending beyond 2^50 cycles, is
// an error.
func (p Profile) EpochStarts(start, horizon float64, epochs int) ([]float64, error) {
	if epochs > MaxEpochs {
		return nil, fmt.Errorf("timeline: %d epochs exceed the cap of %d launch offsets", epochs, MaxEpochs)
	}
	prefix := p.prefixSums()
	total := prefix[len(prefix)-1]
	if horizon <= 0 {
		horizon = total
	}
	stop := start + horizon
	if p.Cyclic && !(stop/total < maxCycles) {
		return nil, fmt.Errorf("timeline: launch offsets up to %v lie beyond 2^50 cycles of the profile", stop)
	}
	if epochs > 0 {
		out := make([]float64, epochs)
		step := horizon / float64(epochs)
		for i := range out {
			out[i] = start + float64(i)*step
		}
		return out, nil
	}
	// Count the boundaries first, so an over-long walk allocates nothing.
	n := 1
	for c := seek(prefix, p.Cyclic, start); c.end < stop; c.next() {
		if n++; n > MaxEpochs {
			return nil, fmt.Errorf("timeline: horizon %v crosses too many segment boundaries for the cap of %d launch offsets; set epochs", horizon, MaxEpochs)
		}
	}
	out := make([]float64, 1, n)
	out[0] = start
	for c := seek(prefix, p.Cyclic, start); len(out) < n; c.next() {
		out = append(out, c.end)
	}
	return out, nil
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

	prefix []float64 // Profile.prefixSums

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
	return &QuasiStatic{Profile: p, J: j, W: w, O: o, prefix: p.prefixSums(), uniform: uniform, memo: make(map[float64]float64)}, nil
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

// At computes the quasi-static completion of a job launched at offset t0,
// which for a cyclic profile must lie within 2^50 cycles (EpochStarts
// hands out only such offsets).
func (qs *QuasiStatic) At(t0 float64) (Epoch, error) {
	segs := qs.Profile.Segments
	c := seek(qs.prefix, qs.Profile.Cyclic, t0)
	seg0 := segs[c.seg()]
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
	for walked := 0; ; walked++ {
		if walked == len(segs) && qs.Profile.Cyclic {
			// Every further whole cycle consumes the same fraction of
			// the job: skip all but the last one or two by cycle index,
			// so the walk crosses about 3n boundaries at most and takes
			// no rounding per cycle skipped.
			var perCycle, areaPerCycle float64
			for _, seg := range segs {
				e, err := qs.stationaryEJob(seg.Util)
				if err != nil {
					return Epoch{}, err
				}
				perCycle += seg.Duration / e
				areaPerCycle += seg.Util * seg.Duration
			}
			if m := math.Floor(frac/perCycle) - 1; m > 0 {
				if !(c.k+m < maxCycles) {
					return Epoch{}, fmt.Errorf("timeline: job launched at %v does not finish within 2^50 cycles", t0)
				}
				c.k += m
				c.at(c.i)
				t += m * qs.prefix[len(segs)]
				frac -= m * perCycle
				utilArea += m * areaPerCycle
			}
		}
		seg := segs[c.seg()]
		e, err := qs.stationaryEJob(seg.Util)
		if err != nil {
			return Epoch{}, err
		}
		if need := frac * e; need <= c.end-t {
			ep.EJob = t + need - t0
			utilArea += seg.Util * need
			if ep.EJob > 0 {
				ep.MeanUtil = utilArea / ep.EJob
			} else {
				ep.MeanUtil = seg.Util
			}
			return ep, nil
		}
		span := c.end - t
		frac -= span / e
		utilArea += seg.Util * span
		t = c.end
		c.next()
	}
}
