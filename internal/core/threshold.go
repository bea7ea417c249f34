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

// MinTaskRatio returns a threshold task ratio r for the target weighted
// efficiency, and the weighted efficiency achieved there:
//
//	r ≥ r_min (MinValidRatio), eff(r) ≥ target, and r = r_min or eff(r−1) < target.
//
// Wherever every group's trial count r·O/s_g is integral, eff is
// nondecreasing in r (TestWeightedEffMonotoneInRatio) and r is the least
// ratio meeting the target. Rounded trial counts can make eff dip (at
// O = 0.75, util 0.05, W = 8, eff(47) > eff(48)); r is then a crossing of
// the target, not necessarily the least one. The search refines a
// closed-form guess (ratioGuess) by one secant step and confirms [r−1, r]
// with LeastMeeting, which gallops outward only when the guess is wrong. If
// eff(maxRatio) misses the target, an error is returned.
func (q ThresholdQuery) MinTaskRatio(maxRatio int) (int, float64, error) {
	r, eff, _, err := q.minTaskRatio(maxRatio)
	return r, eff, err
}

// minTaskRatio is MinTaskRatio, also reporting how many ratios it probed.
func (q ThresholdQuery) minTaskRatio(maxRatio int) (r int, eff float64, probes int, err error) {
	if err := q.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if maxRatio < 1 {
		return 0, 0, 0, fmt.Errorf("core: maxRatio must be >= 1, got %d", maxRatio)
	}
	if slowest, dedicated := q.dedicated(); dedicated {
		// No owner ever interrupts, so E[job] = t/s_min and the weighted
		// efficiency J/(W·E[job]) = s_min at every ratio: exactly 1 on the
		// paper's dedicated system.
		if slowest < q.TargetWeightedEff {
			return 0, 0, 0, fmt.Errorf("core: target weighted efficiency %.3f unreachable at any ratio: the dedicated fleet's slowest station caps it at %.4f",
				q.TargetWeightedEff, slowest)
		}
		return 1, slowest, 0, nil
	}
	lo, err := q.MinValidRatio(maxRatio)
	if err != nil {
		return 0, 0, 0, err
	}
	// Probes are kept: the secant step, LeastMeeting and the answer share them.
	made, w := map[int]float64{}, Fleet{Stations: q.Stations}.W()
	effAt := func(r int) (float64, error) {
		if e, ok := made[r]; ok {
			return e, nil
		}
		e, err := q.weightedEffAtRatio(float64(r), w)
		made[r] = e
		return e, err
	}
	clamp := func(r float64) int { return max(int(math.Ceil(min(r, float64(maxRatio)))), lo) }
	// One secant step on y = 1/eff, which falls toward its large-ratio limit
	// yLimit like 1/√r: solve y = 1/target on the line in x = 1/√r through
	// (0, yLimit) and the probe at the closed-form guess.
	yLimit, next := q.ratioGuess()
	guess := clamp(next)
	e, err := effAt(guess)
	if err != nil {
		return 0, 0, len(made), err
	}
	switch x := (1 / math.Sqrt(float64(guess))) * (1/q.TargetWeightedEff - yLimit) / (1/e - yLimit); {
	case guess == maxRatio && e < q.TargetWeightedEff:
		// Unreachable: LeastMeeting fails at once.
	case math.IsInf(next, 1):
		guess = lo // the target is at the limit, where eff is flat but for rounding
	case x > 0 && !math.IsInf(x, 1):
		guess = clamp(1 / (x * x))
	}
	r, ok, err := LeastMeeting(lo, guess, maxRatio, func(r int) (bool, error) {
		e, err := effAt(r)
		return e >= q.TargetWeightedEff, err
	})
	switch {
	case err != nil:
		return 0, 0, len(made), err
	case !ok:
		return 0, 0, len(made), fmt.Errorf("core: target weighted efficiency %.3f unreachable within task ratio %d (best %.4f)",
			q.TargetWeightedEff, maxRatio, made[maxRatio])
	}
	return r, made[r], len(made), nil
}

// ratioGuess is the closed-form start of the threshold search, O(groups).
// Each group's largest burst count is taken as the normal approximation
// shifted by AnalyzeGumbel's constant a for the group's count, plus the
// Cornish–Fisher skew term c = (a²−1)(1−2p)/6 of a binomial quantile
// (dropped where negative), so that E[job]/T ≈ L_g + O·(a·k·u + c·u²)
// with u = 1/√T, k = sqrt(p(1−p)/s) and L_g = (1+O·p)/s. Solving for the
// bound B = 1/((1−U)·target) per group, the binding group sets the ratio,
// +Inf when some L_g ≥ B. It also returns the large-ratio limit of 1/eff,
// (1−U)·max_g L_g.
func (q ThresholdQuery) ratioGuess() (yLimit, ratio float64) {
	free := 1 - Fleet{O: q.O, Stations: q.Stations}.Utilization()
	bound := 1 / (free * q.TargetWeightedEff)
	for _, s := range q.Stations {
		l := (1 + q.O*s.P) / s.speed()
		yLimit = max(yLimit, free*l)
		a, k := gumbelShift(s.Count), math.Sqrt(s.P*(1-s.P)/s.speed())
		c, gap := 0.0, (bound-l)/q.O
		if s.P > 0 {
			c = max((a*a-1)*(1-2*s.P)/6, 0)
		}
		u := gap / (a * k) // the root when c = 0
		if c > 0 {
			u = 2 * gap / (a*k + math.Sqrt(a*a*k*k+4*c*gap))
		}
		if l >= bound {
			u = 0
		}
		ratio = max(ratio, 1/(u*u*q.O))
	}
	return yLimit, ratio
}

// MinValidRatio returns r_min, the least task ratio at which every
// interruptible group's effective task demand r·O/s_g is at least one time
// unit (Fleet.Validate), where the threshold searches start. It fails when
// r_min exceeds maxRatio.
func (q ThresholdQuery) MinValidRatio(maxRatio int) (int, error) {
	need := 1.0 // max_g ⌈s_g/O⌉, which rounding in T = r·O·W/W moves a step at most
	for _, s := range q.Stations {
		if s.P > 0 {
			need = max(need, math.Ceil(s.speed()/q.O))
		}
	}
	w, r := Fleet{Stations: q.Stations}.W(), maxRatio+1
	valid := func(r int) bool {
		return Fleet{J: float64(r) * q.O * float64(w), O: q.O, Stations: q.Stations}.Validate() == nil
	}
	if need <= float64(maxRatio) {
		if r = int(need); !valid(r) {
			r++
		}
		if r > 1 && valid(r-1) {
			r--
		}
	}
	if r > maxRatio {
		return 0, fmt.Errorf("core: target weighted efficiency %.3f unreachable within task ratio %d: the model needs task ratio >= %.0f for one time unit of task demand",
			q.TargetWeightedEff, maxRatio, need)
	}
	return r, nil
}

// LeastMeeting is the integer threshold search of the analytic and the
// simulated threshold solvers. It returns r in [lo, hi] with meets(r), and
// r = lo or !meets(r−1); where meets is monotone, r is the least such ratio
// whatever the guess. It probes guess (clamped to [lo, hi]) and gallops
// from it in doubling steps — down while probes meet, up while they miss —
// then bisects the bracket, so a right guess costs two probes. The last
// probe that met is at r. ok is false, with no error, when meets(hi) is
// false; hi is then the last probe.
func LeastMeeting(lo, guess, hi int, meets func(int) (bool, error)) (r int, ok bool, err error) {
	below, top := lo-1, hi+1 // the largest probe that missed, the least that met
	r = min(max(guess, lo), hi)
	for step := 1; ; step *= 2 {
		m, err := meets(r)
		switch {
		case err != nil:
			return 0, false, err
		case m:
			top = r
		case r == hi:
			return 0, false, nil
		default:
			below = r
		}
		switch {
		case below+1 == top:
			return top, true, nil
		case top > hi: // none met yet: gallop up
			r = min(r+step, hi)
		case below < lo: // none missed yet: gallop down
			r = max(r-step, lo)
		default:
			r = (below + top) / 2
		}
	}
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
