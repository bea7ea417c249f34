package solve

import (
	"context"
	"fmt"

	"feasim/internal/core"
	"feasim/internal/rng"
)

// Empirical search: the simulation backends answer threshold and partition
// queries by bisecting a monotone metric measured by simulation. Weighted
// efficiency is nondecreasing in the task ratio where trial counts are
// integral (larger tasks amortize each owner burst over more useful work)
// and nonincreasing in W at fixed J (each task shrinks) — the monotonicity
// the analytic solvers in core rely on, property-tested there.
// Decisions use the point estimate; the answer carries the boundary probe's
// confidence interval so callers can judge how sharp the cut is. Each probe
// gets a seed split from the query seed by its probed value (ratio or W),
// so the search result is a pure function of the query, not of the probe
// order. Within one DES probe, the precision-driven protocol extends a live
// GeneralRun session (sim.RunGeneralCtx), so CI refinement carries earlier
// samples forward instead of re-simulating.

// reportFn is a backend's ReportQuery body, used as the probe primitive.
type reportFn func(ctx context.Context, s Scenario) (Report, error)

// analyticThresholdGuess warm-starts the empirical threshold bisections from
// the analytic backend's answer to the same question (the ROADMAP perf
// item): the search probes analytic and analytic−1 first and falls back to
// bracketing only when the simulated boundary disagrees. Each probe's seed
// is still split by the probed value, so any ratio measures identically on
// either path; when the empirical boundary sits at the analytic one (the
// common case) the warm search returns the cold search's answer in two
// probes. 0 means no guess (the analytic solver could not place the
// boundary within maxRatio), preserving the cold full search.
func analyticThresholdGuess(q ThresholdQuery, maxRatio int) int {
	cq, err := q.search()
	if err != nil {
		return 0
	}
	g, _, _ := cq.MinTaskRatio(maxRatio) // 0 on error
	return g
}

// bisectThreshold runs core.LeastMeeting over [r_min, maxRatio] (r_min from
// core.ThresholdQuery.MinValidRatio) on simulated weighted efficiency. With
// a warmStart guess it confirms the guessed boundary in two probes (guess
// meets the target, guess−1 misses); without one it gallops up from r_min.
func bisectThreshold(ctx context.Context, backend string, q ThresholdQuery, maxRatio, warmStart int, probe reportFn) (Answer, error) {
	if q.Util == 0 && len(q.Stations) == 0 {
		// Dedicated system: weighted efficiency is 1 at any ratio. (A station
		// template always searches — even an all-p=0 fleet with speeds below
		// the reference rate caps weighted efficiency below 1.)
		return ThresholdAnswer{
			Backend:      backend,
			MinRatio:     1,
			MinJobDemand: core.RequiredJobDemand(1, q.O, q.W),
			AchievedWeff: 1,
		}, nil
	}
	cq, err := q.search()
	if err != nil {
		return nil, err
	}
	var tiled []StationSpec
	if len(q.Stations) > 0 {
		if tiled, err = tiledSpecs(q.Stations, q.O, q.W); err != nil {
			return nil, err
		}
	}
	root := rng.NewStream(q.Seed)
	probes, samples := 0, int64(0)
	// last is the latest report; boundary the latest that met the target,
	// which LeastMeeting guarantees is the report at the returned ratio.
	var last, boundary Report
	meets := func(ratio int) (bool, error) {
		sc := Scenario{
			Name:     fmt.Sprintf("threshold/r%d", ratio),
			J:        float64(ratio) * q.O * float64(q.W),
			W:        q.W,
			O:        q.O,
			Util:     q.Util,
			Stations: tiled,
			Seed:     root.SplitSeed(uint64(ratio)),
		}
		r, err := probe(ctx, sc)
		if err != nil {
			return false, fmt.Errorf("solve: threshold probe at ratio %d: %w", ratio, err)
		}
		probes++
		samples += r.Samples
		last = r
		if r.WeightedEfficiency >= q.TargetEff {
			boundary = r
			return true, nil
		}
		return false, nil
	}
	lo, err := cq.MinValidRatio(maxRatio)
	if err != nil {
		return nil, err
	}
	ratio, ok, err := core.LeastMeeting(lo, warmStart, maxRatio, meets)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("solve: %s backend: target weighted efficiency %.3f unreachable within task ratio %d (best %.4f)",
			backend, q.TargetEff, maxRatio, last.WeightedEfficiency)
	}
	return ThresholdAnswer{
		Backend:      backend,
		MinRatio:     ratio,
		MinJobDemand: core.RequiredJobDemand(ratio, q.O, q.W),
		AchievedWeff: boundary.WeightedEfficiency,
		WeffCI:       boundary.WeffCI,
		Probes:       probes,
		Samples:      samples,
	}, nil
}

// analyticPartitionGuess warm-starts the empirical partition bisection from
// the exact right-sizing solver's answer (the ROADMAP carry-forward mirroring
// analyticThresholdGuess): the search probes the analytic W and W+1 first and
// falls back to the cold bracket only when the simulated boundary disagrees.
// Probe seeds are split by the probed W either way, so any W measures
// identically on either path. 0 means no guess (the analytic solver refused
// the point), preserving the cold full search.
func analyticPartitionGuess(q PartitionQuery) int {
	template, err := stationTemplate(q.Stations, q.O, q.Util)
	if err != nil {
		return 0
	}
	w, err := core.MaxWorkstations(q.J, q.O, template, q.TargetEff, q.MaxW)
	if err != nil || w < 1 {
		return 0
	}
	return w
}

// bisectPartition finds the largest W in [1, maxW] whose simulated weighted
// efficiency still meets the target for the fixed job q.J, bisecting after
// it probes g, g+1 and maxW while they meet the target (W = 1 if g misses)
// for a warmStart guess g, or W = 1 and maxW without one. A right guess
// costs two probes: g meets the target and g+1 misses.
func bisectPartition(ctx context.Context, backend string, q PartitionQuery, warmStart int, probe reportFn) (Answer, error) {
	// The model's fleet-size cap, shared with the analytic search.
	template, err := stationTemplate(q.Stations, q.O, q.Util)
	if err != nil {
		return nil, err
	}
	maxW, err := core.PartitionLimit(q.J, template, q.MaxW)
	if err != nil {
		return nil, err
	}
	root := rng.NewStream(q.Seed)
	probes, samples := 0, int64(0)
	// Bracket: lo is the largest probed W meeting the target (0: none yet)
	// and best its report; hi the least probed W missing it (maxW+1: none
	// yet) and missed its report. Each probe lands inside the bracket.
	lo, hi := 0, maxW+1
	var best, missed Report
	// chain probes ws in order while they meet the target, stopping at a W
	// already known to meet it or past maxW.
	chain := func(ws ...int) error {
		for _, w := range ws {
			if w > maxW || w <= lo {
				return nil
			}
			sc, err := q.scenario(fmt.Sprintf("partition/w%d", w), w)
			if err != nil {
				return err
			}
			sc.Seed = root.SplitSeed(uint64(w))
			r, err := probe(ctx, sc)
			if err != nil {
				return fmt.Errorf("solve: partition probe at W=%d: %w", w, err)
			}
			probes++
			samples += r.Samples
			if r.WeightedEfficiency < q.TargetEff {
				hi, missed = w, r
				return nil
			}
			lo, best = w, r
		}
		return nil
	}
	if g := min(warmStart, maxW); g >= 1 {
		if err = chain(g, g+1, maxW); err == nil && lo == 0 && g > 1 {
			err = chain(1)
		}
	} else {
		err = chain(1, maxW)
	}
	for err == nil && lo > 0 && lo+1 < hi {
		err = chain((lo + hi) / 2)
	}
	switch {
	case err != nil:
		return nil, err
	case lo == 0: // hi = 1
		return nil, fmt.Errorf("solve: %s backend: even one workstation reaches only %.4f weighted efficiency (target %.4f)",
			backend, missed.WeightedEfficiency, q.TargetEff)
	}
	return PartitionAnswer{Backend: backend, W: best.W, Report: best, Probes: probes, Samples: samples}, nil
}
