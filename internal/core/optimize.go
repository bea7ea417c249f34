package core

import "fmt"

// Right-sizing: the inverse question to the threshold solver. Instead of
// "how big must the job be for this cluster?", ask "how much of the cluster
// should this job use?". For a fixed-size job, weighted efficiency falls as
// workstations are added (each task shrinks, so the task ratio drops —
// Figures 1-4), while raw speedup rises; the useful operating point is the
// largest W that still meets an efficiency target.

// MaxWorkstations returns the largest W in [1, maxW] whose weighted
// efficiency meets the target for a job of demand j with owner burst o on
// the station template tiled cyclically to W stations (TileFleet), so the
// mix is preserved as the fleet grows; the paper's question tiles a
// one-group template, such as Params.Fleet().Stations. If even W=1 misses
// the target, it returns an error carrying the achievable efficiency.
func MaxWorkstations(j, o float64, template []FleetStation, target float64, maxW int) (int, error) {
	if maxW < 1 {
		return 0, fmt.Errorf("core: maxW must be >= 1, got %d", maxW)
	}
	if !(target > 0) || target > 1 {
		return 0, fmt.Errorf("core: target weighted efficiency must be in (0,1], got %v", target)
	}
	maxW, err := PartitionLimit(j, template, maxW)
	if err != nil {
		return 0, err
	}
	// Each probe tiles into the same buffer: only its weighted efficiency
	// outlives the probe.
	stations := make([]FleetStation, 0, len(template))
	eff := func(w int) (float64, error) {
		var err error
		if stations, err = tile(stations[:0], template, w); err != nil {
			return 0, err
		}
		r, err := Analyze(Fleet{J: j, O: o, Stations: stations})
		if err != nil {
			return 0, err
		}
		return r.WeightedEfficiency, nil
	}
	one, err := eff(1)
	if err != nil {
		return 0, err
	}
	if one < target {
		return 0, fmt.Errorf("core: even one workstation reaches only %.4f weighted efficiency (target %.4f)", one, target)
	}
	if maxW == 1 {
		return 1, nil
	}
	// Weighted efficiency is monotone nonincreasing in W for fixed J
	// (property-tested); binary search for the boundary. Every probe is a
	// distinct W, so nothing is evaluated twice.
	lo, hi := 1, maxW // eff(lo) >= target
	top, err := eff(maxW)
	if err != nil {
		return 0, err
	}
	if top >= target {
		return maxW, nil
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		e, err := eff(mid)
		if err != nil {
			return 0, err
		}
		if e >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// PartitionLimit caps a partition search's maxW at the largest fleet the
// discrete model can describe for a job of demand j: every interruptible
// station needs an effective task demand j/(w·speed) of at least one time
// unit, so the fastest interruptible template station bounds w by
// floor(j/speed). A template without interruptible stations is not capped.
func PartitionLimit(j float64, template []FleetStation, maxW int) (int, error) {
	fastest := 0.0
	for _, s := range template {
		if s.P > 0 {
			fastest = max(fastest, s.speed())
		}
	}
	if fastest > 0 && float64(maxW) > j/fastest {
		maxW = int(j / fastest)
		if maxW < 1 {
			return 0, fmt.Errorf("core: job demand %v is below one time unit at the fleet's fastest interruptible station", j)
		}
	}
	return maxW, nil
}
