package solve

import (
	"context"
	"time"

	"feasim/internal/rng"
	"feasim/internal/timeline"
)

// The timeline kind's backend bodies. Both lower the phased scenario onto
// internal/timeline: the analytic backend walks the quasi-static
// approximation (each epoch solved by the stationary kernel, spliced across
// phase boundaries), the DES backend replays every launch offset with
// independent timeline.PhasedStation replications. Both iterate the same
// EpochStarts, so the two answers line up epoch-for-epoch and the parity
// tests can compare them directly.

// timelineProfile lowers the scenario's phases onto the timeline package.
func (s Scenario) timelineProfile() (timeline.Profile, error) {
	phases, cyclic := s.phases()
	segs := make([]timeline.Segment, len(phases))
	for i, ph := range phases {
		segs[i] = timeline.Segment{Name: ph.Name, Duration: ph.Duration, Util: ph.Util}
	}
	p := timeline.Profile{Segments: segs, Cyclic: cyclic}
	return p, p.Validate()
}

// timelineEpoch converts one walked or replayed launch offset and derives
// the ratio metrics and feasibility verdict shared by both backends from
// its E[job] and span-mean utilization.
func timelineEpoch(sc Scenario, e timeline.Epoch) TimelineEpoch {
	ep := TimelineEpoch{
		Start:    e.Start,
		Phase:    e.Segment,
		Util:     e.LaunchUtil,
		MeanUtil: e.MeanUtil,
		EJob:     e.EJob,
	}
	if ep.EJob > 0 {
		ep.Speedup = sc.J / ep.EJob
		ep.Efficiency = ep.Speedup / float64(sc.W)
		ep.WeightedEfficiency = weightedEff(sc.J, sc.W, ep.MeanUtil, ep.EJob)
	}
	if sc.TargetEff > 0 {
		ok := ep.WeightedEfficiency >= sc.TargetEff
		ep.Feasible = &ok
	}
	return ep
}

// timelineStarts lowers the query onto its profile and launch offsets and
// opens the answer both backends fill.
func timelineStarts(backend string, q TimelineQuery) (timeline.Profile, []float64, TimelineAnswer, error) {
	sc := q.Scenario
	prof, err := sc.timelineProfile()
	if err != nil {
		return prof, nil, TimelineAnswer{}, err
	}
	starts, err := prof.EpochStarts(q.Start, q.Horizon, q.Epochs)
	ans := TimelineAnswer{
		Backend:     backend,
		Scenario:    sc,
		CycleLength: prof.Length(),
		MeanUtil:    prof.MeanUtilization(),
	}
	return prof, starts, ans, err
}

// timeline answers a TimelineQuery with the quasi-static approximation.
func (Analytic) timeline(ctx context.Context, q TimelineQuery) (Answer, error) {
	start := time.Now()
	sc := q.Scenario
	prof, starts, ans, err := timelineStarts(BackendAnalytic, q)
	if err != nil {
		return nil, err
	}
	qs, err := timeline.NewQuasiStatic(prof, sc.J, sc.W, sc.O)
	if err != nil {
		return nil, err
	}
	for _, t0 := range starts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, err := qs.At(t0)
		if err != nil {
			return nil, err
		}
		ans.Epochs = append(ans.Epochs, timelineEpoch(sc, e))
	}
	ans.Elapsed = time.Since(start)
	return ans, nil
}

// timeline answers a TimelineQuery by DES replay over phased stations.
func (d DES) timeline(ctx context.Context, q TimelineQuery) (Answer, error) {
	start := time.Now()
	sc := q.Scenario
	prof, starts, ans, err := timelineStarts(BackendDES, q)
	if err != nil {
		return nil, err
	}
	level := protocolOrDefault(d.Protocol).Level
	root := rng.NewStream(sc.Seed)
	demand := sc.J / float64(sc.W)
	for i, t0 := range starts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each epoch's replications draw from a stream split by epoch index,
		// so adding or reordering epochs never changes another epoch's
		// samples.
		res, err := timeline.Replay(prof, sc.O, sc.W, demand, t0, q.samples(), level, root.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		ep := timelineEpoch(sc, res.Epoch)
		ep.EJobCI = intervalFromCI(res.CI)
		ep.Samples = res.Samples
		ans.Epochs = append(ans.Epochs, ep)
	}
	ans.Elapsed = time.Since(start)
	return ans, nil
}
