package core

import (
	"fmt"
	"math"
)

// ThresholdQuery asks: on a fleet of these stations, each with owner burst
// demand O, how large must the task ratio T/O be for the parallel job to
// reach TargetWeightedEff weighted efficiency? The station mix is fixed and
// the job demand J = ratio·O·W is searched.
//
// This is the paper's headline engineering result (Section 5): "the task
// ratio should be at least 8 for a parallel job to achieve 80 percent of the
// possible speedup ... for a utilization of 5 percent. At a utilization of
// 10 percent the task ratio must be 13 or higher, and at a utilization of 20
// percent the task ratio must be 20 or greater." The paper's question is the
// one-group fleet, Params.Fleet().Stations.
type ThresholdQuery struct {
	Stations          []FleetStation
	O                 float64
	TargetWeightedEff float64
}

// Validate checks the query parameters.
func (q ThresholdQuery) Validate() error {
	switch {
	case len(q.Stations) == 0:
		return fmt.Errorf("core: threshold query needs at least one station group")
	case !(q.O > 0):
		return fmt.Errorf("core: threshold query needs O > 0, got %v", q.O)
	case !(q.TargetWeightedEff > 0) || q.TargetWeightedEff > 1:
		return fmt.Errorf("core: target weighted efficiency must be in (0,1], got %v", q.TargetWeightedEff)
	}
	for i, s := range q.Stations {
		if err := s.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// weightedEffAtRatio evaluates weighted efficiency at task ratio r on a fleet
// of w stations (J = r·O·w).
func (q ThresholdQuery) weightedEffAtRatio(r float64, w int) (float64, error) {
	res, err := Analyze(Fleet{J: r * q.O * float64(w), O: q.O, Stations: q.Stations})
	if err != nil {
		return 0, err
	}
	return res.WeightedEfficiency, nil
}

// MinTaskRatio returns the smallest integer task ratio achieving the target
// weighted efficiency, and the weighted efficiency achieved there, found by
// exponential-then-binary search. Weighted efficiency is monotone
// nondecreasing in the task ratio for a fixed mix (larger tasks amortize
// each owner burst over more useful work), which the property tests verify.
// maxRatio caps the search; if even maxRatio misses the target, an error is
// returned. Each probe varies T (= ratio·O) at fixed P, so probes within one
// search hit distinct (N, P) tables; the process-wide memo of tables.go pays
// off across searches — repeated queries or a sweep running alongside.
func (q ThresholdQuery) MinTaskRatio(maxRatio int) (int, float64, error) {
	if err := q.Validate(); err != nil {
		return 0, 0, err
	}
	if maxRatio < 1 {
		return 0, 0, fmt.Errorf("core: maxRatio must be >= 1, got %d", maxRatio)
	}
	w := Fleet{Stations: q.Stations}.W()
	if slowest, dedicated := q.dedicated(); dedicated {
		// No owner ever interrupts, so E[job] = t/s_min and the weighted
		// efficiency J/(W·E[job]) = s_min at every ratio: exactly 1 on the
		// paper's dedicated system.
		if slowest < q.TargetWeightedEff {
			return 0, 0, fmt.Errorf("core: target weighted efficiency %.3f unreachable at any ratio: the dedicated fleet's slowest station caps it at %.4f",
				q.TargetWeightedEff, slowest)
		}
		return 1, slowest, nil
	}
	// Exponential search for an upper bracket.
	hi := 1
	hiEff := 0.0
	for {
		eff, err := q.weightedEffAtRatio(float64(hi), w)
		if err != nil {
			return 0, 0, err
		}
		if eff >= q.TargetWeightedEff {
			hiEff = eff
			break
		}
		if hi >= maxRatio {
			return 0, 0, fmt.Errorf("core: target weighted efficiency %.3f unreachable within task ratio %d (best %.4f)",
				q.TargetWeightedEff, maxRatio, eff)
		}
		hi *= 2
		if hi > maxRatio {
			hi = maxRatio
		}
	}
	lo := hi / 2 // eff(lo) known < target when hi > 1
	if hi == 1 {
		return 1, hiEff, nil
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		eff, err := q.weightedEffAtRatio(float64(mid), w)
		if err != nil {
			return 0, 0, err
		}
		if eff >= q.TargetWeightedEff {
			hi, hiEff = mid, eff
		} else {
			lo = mid
		}
	}
	return hi, hiEff, nil
}

// dedicated reports whether no station's owner ever interrupts, and the
// slowest station speed.
func (q ThresholdQuery) dedicated() (slowest float64, ok bool) {
	slowest = math.Inf(1)
	for _, s := range q.Stations {
		if s.P > 0 {
			return 0, false
		}
		slowest = min(slowest, s.speed())
	}
	return slowest, true
}

// RequiredJobDemand converts a task-ratio threshold into the minimum total
// job demand J = ratio·O·W, the quantity a user actually controls.
func RequiredJobDemand(ratio int, o float64, w int) float64 {
	return float64(ratio) * o * float64(w)
}

// FeasibilityVerdict classifies a fleet against a target weighted
// efficiency.
type FeasibilityVerdict struct {
	Result
	Target   float64
	Feasible bool
	// MinRatio is the threshold ratio at this mix and O; 0 when the target
	// is unreachable.
	MinRatio int
	// MinJobDemand is the smallest J meeting the target at this mix; 0 when
	// the target is unreachable.
	MinJobDemand float64
}

// Assess runs the model and the threshold search together. Without owner
// bursts (O = 0) the task ratio is unbounded and the verdict prescribes
// ratio 1 with no minimum job demand.
func Assess(f Fleet, target float64) (FeasibilityVerdict, error) {
	res, err := Analyze(f)
	if err != nil {
		return FeasibilityVerdict{}, err
	}
	v := FeasibilityVerdict{Result: res, Target: target, Feasible: res.WeightedEfficiency >= target}
	if f.O == 0 {
		v.MinRatio = 1
		v.MinJobDemand = f.O * float64(res.W)
		return v, nil
	}
	q := ThresholdQuery{Stations: f.Stations, O: f.O, TargetWeightedEff: target}
	if ratio, _, err := q.MinTaskRatio(1 << 20); err == nil {
		v.MinRatio = ratio
		v.MinJobDemand = RequiredJobDemand(ratio, f.O, res.W)
	}
	return v, nil
}
