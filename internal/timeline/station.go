package timeline

import (
	"fmt"

	"feasim/internal/cluster"
	"feasim/internal/rng"
	"feasim/internal/stats"
)

// PhasedStation is a workstation whose owner follows a Profile: during each
// segment the owner runs the paper's Sun-ELC workload (deterministic bursts
// of demand o) at the segment's utilization, and a task experiences
// whichever segments its execution overlaps.
type PhasedStation struct {
	name   string
	prefix []float64 // Profile.prefixSums
	cyclic bool
	params []cluster.StationParams // owner workload per segment
	stream *rng.Stream
}

// NewPhasedStation builds a phased station whose owner bursts have demand o.
func NewPhasedStation(name string, p Profile, o float64, stream *rng.Stream) (*PhasedStation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	params := make([]cluster.StationParams, len(p.Segments))
	for i, seg := range p.Segments {
		sp, err := cluster.SunELCParams(o, seg.Util)
		if err != nil {
			return nil, fmt.Errorf("timeline: segment %d (%s): %w", i, seg.Name, err)
		}
		params[i] = sp
	}
	return &PhasedStation{name: name, prefix: p.prefixSums(), cyclic: p.Cyclic, params: params, stream: stream}, nil
}

// RunTaskAt executes a task of the given demand starting at absolute
// profile time start (e.g. 0 = start of the first segment). Owner behaviour
// switches as the task crosses segment boundaries. It panics on a negative
// demand, or on a cyclic start beyond 2^50 cycles.
func (s *PhasedStation) RunTaskAt(start, demand float64) cluster.TaskRecord {
	if demand < 0 {
		panic(fmt.Sprintf("timeline: negative task demand %v", demand))
	}
	rec := cluster.TaskRecord{Station: s.name, Demand: demand}
	now := start
	remaining := demand

	c := seek(s.prefix, s.cyclic, now)
	params := &s.params[c.seg()]
	// Owner state: next arrival sampled from the current segment.
	nextArrival := now + params.OwnerThink.Sample(s.stream)
	for remaining > 0 {
		// Segment boundary first: resample owner behaviour in the new
		// segment (entering a trace's hold segment counts too).
		if now >= c.end {
			c.next()
			params = &s.params[c.seg()]
			nextArrival = now + params.OwnerThink.Sample(s.stream)
			continue
		}
		if nextArrival <= now {
			b := params.OwnerDemand.Sample(s.stream)
			// Clip the burst at the segment end: the remainder is re-sampled
			// under the next segment's behaviour (an approximation that keeps
			// segments independent).
			if now+b > c.end {
				b = c.end - now
			}
			now += b
			rec.OwnerTime += b
			if b > 0 {
				rec.Bursts++
			}
			nextArrival = now + params.OwnerThink.Sample(s.stream)
			continue
		}
		slice := nextArrival - now
		if e := c.end - now; e < slice {
			slice = e
		}
		if slice > remaining {
			slice = remaining
		}
		now += slice
		remaining -= slice
	}
	rec.Elapsed = now - start
	return rec
}

// ReplayResult summarizes one launch offset's DES replications. Its Epoch
// carries the launch segment, the mean job time as EJob and the
// utilization averaged over [Start, Start+EJob].
type ReplayResult struct {
	Epoch
	// CI is the confidence interval of the mean job time.
	CI      stats.CI
	Samples int64
}

// Replay measures the empirical job time at one launch offset: reps
// independent replications, each running one task of the given demand on w
// phased stations (owner burst demand o) starting at offset t0; the
// replication's job time is the slowest station's. Station streams are
// split from root by (replication, station), so the result is a pure
// function of (p, o, w, demand, t0, reps, root seed).
func Replay(p Profile, o float64, w int, demand, t0 float64, reps int, level float64, root *rng.Stream) (ReplayResult, error) {
	if w < 1 {
		return ReplayResult{}, fmt.Errorf("timeline: replay needs at least one station, got %d", w)
	}
	if reps < 2 {
		return ReplayResult{}, fmt.Errorf("timeline: replay needs at least 2 replications, got %d", reps)
	}
	st, err := NewPhasedStation("", p, o, nil)
	if err != nil {
		return ReplayResult{}, err
	}
	var sum stats.Summary
	for r := 0; r < reps; r++ {
		rs := root.Split(uint64(r))
		var jobTime float64
		for i := 0; i < w; i++ {
			st.stream = rs.Split(uint64(i))
			if rec := st.RunTaskAt(t0, demand); rec.Elapsed > jobTime {
				jobTime = rec.Elapsed
			}
		}
		sum.Add(jobTime)
	}
	c := seek(st.prefix, st.cyclic, t0)
	seg := p.Segments[c.seg()]
	mean := sum.Mean()
	return ReplayResult{
		Epoch: Epoch{
			Start:      t0,
			Segment:    seg.Name,
			LaunchUtil: seg.Util,
			MeanUtil:   p.MeanUtilizationOver(t0, t0+mean),
			EJob:       mean,
		},
		CI:      sum.MeanCI(level),
		Samples: sum.N(),
	}, nil
}
