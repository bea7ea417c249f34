package solve

import (
	"context"
	"fmt"

	"feasim/internal/core"
	"feasim/internal/rng"
)

// Empirical search: the simulation backends answer threshold and partition
// queries by bisecting a monotone metric measured by simulation. Weighted
// efficiency is nondecreasing in the task ratio (larger tasks amortize each
// owner burst over more useful work) and nonincreasing in W at fixed J
// (each task shrinks) — the same monotonicity the analytic solvers in
// core/threshold.go and core/optimize.go rely on, property-tested there.
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
	g, _, err := cq.MinTaskRatio(maxRatio)
	if err != nil || g < 1 {
		return 0
	}
	return g
}

// bisectThreshold finds the smallest integer task ratio in [1, maxRatio]
// whose simulated weighted efficiency meets the target. With a warmStart
// guess it confirms the guessed boundary in two probes (guess meets the
// target, guess−1 misses) and only falls back to bracketing plus binary
// search when the empirical boundary disagrees; without one it runs the cold
// exponential-then-binary search.
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
	var tiled []StationSpec
	if len(q.Stations) > 0 {
		var err error
		if tiled, err = tiledSpecs(q.Stations, q.O, q.W); err != nil {
			return nil, err
		}
	}
	root := rng.NewStream(q.Seed)
	probes, samples := 0, int64(0)
	eval := func(ratio int) (Report, error) {
		sc := Scenario{
			Name:     fmt.Sprintf("threshold/r%d", ratio),
			J:        float64(ratio) * q.O * float64(q.W),
			W:        q.W,
			O:        q.O,
			Util:     q.Util,
			Stations: tiled,
			Seed:     root.Split(uint64(ratio)).Uint64(),
		}
		r, err := probe(ctx, sc)
		if err != nil {
			return Report{}, fmt.Errorf("solve: threshold probe at ratio %d: %w", ratio, err)
		}
		probes++
		samples += r.Samples
		return r, nil
	}
	answer := func(ratio int, boundary Report) (Answer, error) {
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

	// Bracket invariant for the binary phase: weff(hi) >= target with
	// boundary holding the report at hi; lo == 0 or weff(lo) < target.
	var lo, hi int
	var boundary Report

	// bracketUp establishes the invariant by exponential search upward from
	// `from`, whose report `below` is known to miss the target.
	bracketUp := func(from int, below Report) error {
		for {
			if from >= maxRatio {
				return fmt.Errorf("solve: %s backend: target weighted efficiency %.3f unreachable within task ratio %d (best %.4f)",
					backend, q.TargetEff, maxRatio, below.WeightedEfficiency)
			}
			lo = from
			hi = from * 2
			if hi > maxRatio {
				hi = maxRatio
			}
			r, err := eval(hi)
			if err != nil {
				return err
			}
			if r.WeightedEfficiency >= q.TargetEff {
				boundary = r
				return nil
			}
			from, below = hi, r
		}
	}

	if g := min(warmStart, maxRatio); g >= 1 {
		r, err := eval(g)
		if err != nil {
			return nil, err
		}
		switch {
		case r.WeightedEfficiency < q.TargetEff:
			// Empirical boundary above the analytic guess.
			if err := bracketUp(g, r); err != nil {
				return nil, err
			}
		case g == 1:
			return answer(1, r)
		default:
			below, err := eval(g - 1)
			if err != nil {
				return nil, err
			}
			if below.WeightedEfficiency < q.TargetEff {
				return answer(g, r) // the hot case: two probes confirm
			}
			// Empirical boundary below the analytic guess: bisect (0, g-1].
			lo, hi, boundary = 0, g-1, below
		}
	} else {
		r, err := eval(1)
		if err != nil {
			return nil, err
		}
		if r.WeightedEfficiency >= q.TargetEff {
			return answer(1, r)
		}
		if err := bracketUp(1, r); err != nil {
			return nil, err
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		r, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if r.WeightedEfficiency >= q.TargetEff {
			hi, boundary = mid, r
		} else {
			lo = mid
		}
	}
	return answer(hi, boundary)
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
// efficiency still meets the target for the fixed job q.J. With a warmStart
// guess it confirms the guessed boundary in two probes (guess meets the
// target, guess+1 misses) and only falls back to the full bracket plus
// binary search when the empirical boundary disagrees.
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
	eval := func(w int) (Report, error) {
		sc, err := q.scenario(fmt.Sprintf("partition/w%d", w), w)
		if err != nil {
			return Report{}, err
		}
		sc.Seed = root.Split(uint64(w)).Uint64()
		r, err := probe(ctx, sc)
		if err != nil {
			return Report{}, fmt.Errorf("solve: partition probe at W=%d: %w", w, err)
		}
		probes++
		samples += r.Samples
		return r, nil
	}
	answer := func(best Report) (Answer, error) {
		return PartitionAnswer{Backend: backend, W: best.W, Report: best, Probes: probes, Samples: samples}, nil
	}
	infeasibleAtOne := func(one Report) error {
		return fmt.Errorf("solve: %s backend: even one workstation reaches only %.4f weighted efficiency (target %.4f)",
			backend, one.WeightedEfficiency, q.TargetEff)
	}

	// Binary-phase invariant: weff(lo) >= target with best the report at lo;
	// weff(hi) < target.
	var lo, hi int
	var best Report

	if g := min(warmStart, maxW); g >= 1 {
		r, err := eval(g)
		if err != nil {
			return nil, err
		}
		switch {
		case r.WeightedEfficiency < q.TargetEff:
			// Empirical boundary below the analytic guess: bisect [1, g).
			if g == 1 {
				return nil, infeasibleAtOne(r)
			}
			one, err := eval(1)
			if err != nil {
				return nil, err
			}
			if one.WeightedEfficiency < q.TargetEff {
				return nil, infeasibleAtOne(one)
			}
			lo, hi, best = 1, g, one
		case g == maxW:
			return answer(r)
		default:
			above, err := eval(g + 1)
			if err != nil {
				return nil, err
			}
			if above.WeightedEfficiency < q.TargetEff {
				return answer(r) // the hot case: two probes confirm
			}
			// Empirical boundary above the analytic guess: bisect (g, maxW].
			if g+1 == maxW {
				return answer(above)
			}
			top, err := eval(maxW)
			if err != nil {
				return nil, err
			}
			if top.WeightedEfficiency >= q.TargetEff {
				return answer(top)
			}
			lo, hi, best = g+1, maxW, above
		}
	} else {
		one, err := eval(1)
		if err != nil {
			return nil, err
		}
		if one.WeightedEfficiency < q.TargetEff {
			return nil, infeasibleAtOne(one)
		}
		if maxW == 1 {
			return answer(one)
		}
		top, err := eval(maxW)
		if err != nil {
			return nil, err
		}
		if top.WeightedEfficiency >= q.TargetEff {
			return answer(top)
		}
		lo, hi, best = 1, maxW, one
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		r, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if r.WeightedEfficiency >= q.TargetEff {
			lo, best = mid, r
		} else {
			hi = mid
		}
	}
	return answer(best)
}
