package core

import (
	"fmt"
	"math"
	"sort"
)

// Fleets: the paper's model with per-station owner request probability and
// execution speed, the one question type of the analytic layer. Station i
// runs its task share at speed s_i (effective demand t_i = T/s_i, T = J/W
// the reference task demand) and its owner interrupts each unit of progress
// with probability p_i, so the per-task burst count is Bin(round(t_i), p_i)
// and the job completion time is
//
//	M = max_i ( t_i + O·X_i ),   X_i ~ Bin(n_i, p_i) independent.
//
// P(M ≤ x) = Π_g F_g(⌊(x−t_g)/O⌋)^c_g over the speed/availability groups,
// evaluated on the shared BinomialTables windows via the log1p(−tail)
// product (the same precision trick as ExpectedMax). The model reads only
// per-group statistics: the mean of the fleet's total burst count Σ_i X_i
// is the closed form Σ_g c_g·n_g·p_g, so the distribution of that sum is
// never built. The paper's homogeneous model is the one-group fleet
// at reference speed (Params.Fleet): every entry point detects it without
// allocating and answers it with the binomial kernel of model.go.

// FleetStation describes one group of identical stations in a
// heterogeneous fleet: Count stations whose owners request with
// probability P per unit of task progress, executing task work at Speed
// times the reference rate (0 means 1).
type FleetStation struct {
	P     float64
	Speed float64
	Count int
}

// speed returns the effective speed, defaulting 0 to the reference rate.
func (s FleetStation) speed() float64 {
	if s.Speed == 0 {
		return 1
	}
	return s.Speed
}

// Fleet is a feasibility question: total job demand J split evenly across
// the stations (one task each), owner burst demand O shared fleet-wide,
// availability and speed per station group.
type Fleet struct {
	J        float64
	O        float64
	Stations []FleetStation
}

// W is the total station (= task) count.
func (f Fleet) W() int {
	n := 0
	for _, s := range f.Stations {
		n += s.Count
	}
	return n
}

// TaskDemand is the reference per-task demand T = J/W.
func (f Fleet) TaskDemand() float64 { return f.J / float64(f.W()) }

// Validate checks fleet parameter ranges, mirroring Params.Validate per
// station group.
func (f Fleet) Validate() error {
	switch {
	case !(f.J > 0) || math.IsInf(f.J, 0):
		return fmt.Errorf("core: fleet job demand J must be positive and finite, got %v", f.J)
	case f.O < 0 || math.IsNaN(f.O) || math.IsInf(f.O, 0):
		return fmt.Errorf("core: fleet owner demand O must be >= 0 and finite, got %v", f.O)
	case len(f.Stations) == 0:
		return fmt.Errorf("core: fleet needs at least one station group")
	}
	t := f.TaskDemand()
	for i, s := range f.Stations {
		if err := s.validate(i); err != nil {
			return err
		}
		if s.P > 0 && t/s.speed() < 1 {
			return fmt.Errorf("core: fleet station group %d effective task demand %v is below one time unit",
				i, t/s.speed())
		}
	}
	return nil
}

// validate checks the ranges of station group i.
func (s FleetStation) validate(i int) error {
	switch {
	case s.Count < 1:
		return fmt.Errorf("core: fleet station group %d count must be >= 1, got %d", i, s.Count)
	case s.P < 0 || s.P > 1 || math.IsNaN(s.P):
		return fmt.Errorf("core: fleet station group %d probability must be in [0,1], got %v", i, s.P)
	case !(s.speed() > 0) || math.IsInf(s.Speed, 0) || math.IsNaN(s.Speed):
		return fmt.Errorf("core: fleet station group %d speed must be positive and finite, got %v", i, s.Speed)
	}
	return nil
}

// Canonical returns the station multiset sorted by (p, speed) with equal
// groups merged and speeds normalized — the form the fleet identity
// signature and the kernels key on.
func (f Fleet) Canonical() []FleetStation {
	out := make([]FleetStation, 0, len(f.Stations))
	for _, s := range f.Stations {
		out = append(out, FleetStation{P: s.P, Speed: s.speed(), Count: s.Count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Speed < out[j].Speed
	})
	merged := out[:1]
	for _, s := range out[1:] {
		if last := &merged[len(merged)-1]; last.P == s.P && last.Speed == s.Speed {
			last.Count += s.Count
		} else {
			merged = append(merged, s)
		}
	}
	return merged
}

// homogeneous reports whether every station group shares one request
// probability at the reference speed — the paper's model — and returns the
// equivalent Params, for the caller to validate under the homogeneous
// model's own rules. It allocates nothing, so the binomial fast path costs
// a scan of the groups. A group with a non-positive count is left to the
// fleet validation.
func (f Fleet) homogeneous() (p Params, ok bool) {
	for i, s := range f.Stations {
		if i == 0 {
			p = Params{J: f.J, O: f.O, P: s.P}
		}
		if s.P != p.P || s.speed() != 1 || s.Count < 1 {
			return Params{}, false
		}
		p.W += s.Count
	}
	return p, p.W > 0
}

// Utilization is the station-weighted mean owner utilization
// Σ c_g·u_g / W with u_g = O/(O + 1/p_g) (equation (8) per group).
func (f Fleet) Utilization() float64 {
	if f.O == 0 {
		return 0
	}
	var sum float64
	for _, s := range f.Stations {
		if s.P > 0 {
			sum += float64(s.Count) * f.O / (f.O + 1/s.P)
		}
	}
	return sum / float64(f.W())
}

// fleetGroup is one canonical group resolved against the job: effective
// demand, trial count and the binomial window, borrowed for the call
// (releaseGroups hands the windows back).
type fleetGroup struct {
	FleetStation
	t  float64
	n  int
	tb *BinomialTables
}

func resolveFleetGroups(f Fleet) []fleetGroup {
	t := f.TaskDemand()
	canon := f.Canonical()
	out := make([]fleetGroup, 0, len(canon))
	for _, s := range canon {
		g := fleetGroup{FleetStation: s, t: t / s.Speed}
		g.n = int(math.Round(g.t))
		g.tb = borrowTables(g.n, s.P)
		out = append(out, g)
	}
	return out
}

// releaseGroups hands back the tables resolveFleetGroups borrowed.
func releaseGroups(groups []fleetGroup) {
	for _, g := range groups {
		g.tb.release()
	}
}

// analyzeFleet is the fleet kernel behind Analyze for a validated fleet
// that is not homogeneous.
func analyzeFleet(f Fleet) (Result, error) {
	w := f.W()
	res := Result{Fleet: f, W: w, T: f.TaskDemand(), U: f.Utilization()}
	groups := resolveFleetGroups(f)
	defer releaseGroups(groups)

	var etask float64
	sameOffset := true
	for _, g := range groups {
		etask += float64(g.Count) * (g.t + f.O*float64(g.n)*g.P)
		if g.t != groups[0].t {
			sameOffset = false
		}
	}
	res.ETask = etask / float64(w)

	res.EBurstsPerTsk = burstMean(groups) / float64(w)

	times, probs := fleetJobPMF(groups, f.O)
	for i, p := range probs {
		res.EJob += times[i] * p
	}
	if sameOffset && f.O > 0 {
		res.EMaxBursts = (res.EJob - groups[0].t) / f.O
	}
	res.Metrics = metricsFor(Params{J: f.J, W: w, O: f.O}, res.U, res.EJob)
	return res, nil
}

// burstMean is the mean of the fleet's total per-job burst count,
// Σ_g c_g·n_g·p_g. It sums in ascending p and merges the trial counts of
// equal-p groups before multiplying; the fleet goldens pin that order's
// bits. The canonical fleet groups are sorted by p, so equal-p groups are
// adjacent.
func burstMean(groups []fleetGroup) float64 {
	var mu float64
	for i := 0; i < len(groups); {
		p, trials := groups[i].P, 0
		for ; i < len(groups) && groups[i].P == p; i++ {
			trials += groups[i].Count * groups[i].n
		}
		mu += float64(trials) * p
	}
	return mu
}

// fleetJobPMF builds the exact job completion-time distribution over the
// merged lattice of group support points x = t_g + k·O,
//
//	P(M ≤ x) = Π_g F_g(k_g(x))^c_g = exp( Σ_g c_g·log1p(−tail_g(k_g(x))) ),
//
// differenced across the ascending support. Groups whose window the point
// has not reached force the product to zero; the log1p(−tail) form keeps
// full relative precision where the per-group cdf is near one — exactly the
// regime a fleet-wide max amplifies.
//
// The groups' lattices are each ascending, so they are merged point by
// point (exact duplicates emitted once), and the walk stops at the first
// point whose cdf is exactly 1: every later point differences to zero and
// the normalization remainder is zero. A cdf of exactly 1 needs every log
// term within 2^−54 of zero, where log1p(−τ) returns −τ and exp(y) returns
// 1+y, so a later point, whose terms are no smaller, has a cdf of exactly 1
// too. The rest of a window, often most of a full support, is never
// evaluated.
func fleetJobPMF(groups []fleetGroup, o float64) (times, probs []float64) {
	if o == 0 {
		deterministic := 0.0
		for _, g := range groups {
			if g.t > deterministic {
				deterministic = g.t
			}
		}
		return []float64{deterministic}, []float64{1}
	}
	// Room for a typical answer's support (a few dozen points); a wider
	// one grows by append.
	times = make([]float64, 0, 64)
	probs = make([]float64, 0, 64)
	cur := make([]latticeCursor, len(groups))
	for i, g := range groups {
		cur[i] = latticeCursor{next: g.tb.Lo, at: g.t + float64(g.tb.Lo)*o, k: math.MinInt}
	}
	prev := 0.0
	for {
		x, ok := 0.0, false
		for i, g := range groups {
			if c := cur[i]; c.next <= g.tb.Hi && (!ok || c.at < x) {
				x, ok = c.at, true
			}
		}
		if !ok {
			break
		}
		for i, g := range groups {
			c := &cur[i]
			for c.next <= g.tb.Hi && c.at == x {
				c.next++
				c.at = g.t + float64(c.next)*o
			}
		}

		logG := 0.0
		zero := false
		for i, g := range groups {
			k := int(math.Floor((x-g.t)/o + 1e-9))
			if k < g.tb.Lo {
				zero = true
				break
			}
			if k < g.tb.Hi { // at or above Hi the tail is 0: the factor is 1
				// c_g·log1p(−tail_g(k)), taken once per distinct k: the
				// walk reaches each group's burst counts in ascending
				// order. A tail of 1 gives −Inf, which exp maps to the
				// zero the product needs.
				c := &cur[i]
				if c.k != k {
					c.k, c.term = k, float64(g.Count)*math.Log1p(-g.tb.tail[k-g.tb.Lo])
				}
				logG += c.term
			}
		}
		cum := 0.0
		if !zero {
			cum = math.Exp(logG)
		}
		if p := cum - prev; p > 0 {
			times = append(times, x)
			probs = append(probs, p)
		}
		prev = cum
		if cum == 1 {
			break
		}
	}
	if len(times) == 0 {
		// Every point differenced to zero mass (degenerate windows); fall
		// back to the largest support point as a point mass.
		top := math.Inf(-1)
		for _, g := range groups {
			top = max(top, g.t+float64(g.tb.Hi)*o)
		}
		return []float64{top}, []float64{1}
	}
	// Fold the truncated upper-tail remainder into the last kept point so
	// the distribution stays normalized, as burstCountToTimes does.
	if rem := 1 - prev; rem > 0 {
		probs[len(probs)-1] += rem
	}
	return times, probs
}

// latticeCursor is one group's state in fleetJobPMF's walk: the next of
// its own lattice points to merge, and the log term of the burst count the
// last evaluated point reached.
type latticeCursor struct {
	next int     // next lattice index k in [Lo, Hi+1]
	at   float64 // t_g + next·O
	k    int     // burst count of term
	term float64 // c_g·log1p(−tail_g(k))
}

// TileFleet expands a station template cyclically to exactly w stations —
// the convention the threshold/partition/scaled searches use to grow or
// shrink a fleet while preserving its mix. The result is canonical (sorted,
// merged).
func TileFleet(template []FleetStation, w int) ([]FleetStation, error) {
	tiled, err := tile(nil, template, w)
	if err != nil {
		return nil, err
	}
	return Fleet{Stations: tiled}.Canonical(), nil
}

// tile appends to dst the station groups of template expanded cyclically to
// w stations, one group per template group that receives any, in template
// order. It is arithmetic in the number of template groups: the stations
// repeat the template's period w/period times, and the first w%period
// stations of one more period follow.
func tile(dst, template []FleetStation, w int) ([]FleetStation, error) {
	if len(template) == 0 {
		return nil, fmt.Errorf("core: fleet template needs at least one station group")
	}
	if w < 1 {
		return nil, fmt.Errorf("core: fleet tiling needs w >= 1, got %d", w)
	}
	period := 0
	for _, s := range template {
		if s.Count < 1 {
			return nil, fmt.Errorf("core: fleet template group count must be >= 1, got %d", s.Count)
		}
		period += s.Count
	}
	rest := w % period
	for _, s := range template {
		n := w/period*s.Count + min(max(rest, 0), s.Count)
		rest -= s.Count
		if n > 0 {
			dst = append(dst, FleetStation{P: s.P, Speed: s.speed(), Count: n})
		}
	}
	return dst, nil
}
