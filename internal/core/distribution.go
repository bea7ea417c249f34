package core

import (
	"fmt"
	"math"
)

// Beyond the paper's expectations: the full distribution of task and job
// completion times. The model makes these exact and cheap — task time is
// T + O·Bin(T,P), job time is T + O·max of W such binomials — so quantiles
// and tail probabilities (what a deadline scheduler actually wants) come
// straight from the pmf tables of binomial.go.

// TimeDistribution is a discrete completion-time distribution: time values
// with their probabilities, in increasing time order.
type TimeDistribution struct {
	Times []float64
	Probs []float64
}

// Validate checks the distribution is well-formed and normalized.
func (d TimeDistribution) Validate() error {
	if len(d.Times) == 0 || len(d.Times) != len(d.Probs) {
		return fmt.Errorf("core: malformed time distribution (%d times, %d probs)", len(d.Times), len(d.Probs))
	}
	var sum float64
	for i, p := range d.Probs {
		if p < -1e-12 {
			return fmt.Errorf("core: negative probability %v at %d", p, i)
		}
		if i > 0 && d.Times[i] <= d.Times[i-1] {
			return fmt.Errorf("core: times not increasing at %d", i)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("core: probabilities sum to %v", sum)
	}
	return nil
}

// Mean is the expectation.
func (d TimeDistribution) Mean() float64 {
	var m float64
	for i, p := range d.Probs {
		m += d.Times[i] * p
	}
	return m
}

// Variance is the second central moment.
func (d TimeDistribution) Variance() float64 {
	m := d.Mean()
	var v float64
	for i, p := range d.Probs {
		dlt := d.Times[i] - m
		v += dlt * dlt * p
	}
	return v
}

// StdDev is the standard deviation.
func (d TimeDistribution) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Quantile returns the smallest time t with P(X <= t) >= q.
func (d TimeDistribution) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("core: quantile requires q in [0,1]")
	}
	var cum float64
	for i, p := range d.Probs {
		cum += p
		if cum >= q-1e-12 {
			return d.Times[i]
		}
	}
	return d.Times[len(d.Times)-1]
}

// TailProb returns P(X > t).
func (d TimeDistribution) TailProb(t float64) float64 {
	var tail float64
	for i := len(d.Times) - 1; i >= 0; i-- {
		if d.Times[i] <= t {
			break
		}
		tail += d.Probs[i]
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// TaskTimeDistribution returns the exact distribution of one task's
// completion time, T + O·Bin(trials, P).
func TaskTimeDistribution(p Params) (TimeDistribution, error) {
	if err := p.Validate(); err != nil {
		return TimeDistribution{}, err
	}
	t := p.TaskDemand()
	n := p.trials()
	if p.O == 0 || p.P == 0 || n == 0 {
		return TimeDistribution{Times: []float64{t}, Probs: []float64{1}}, nil
	}
	tb := borrowTables(n, p.P)
	defer tb.release()
	return burstCountToTimes(t, p.O, tb.Lo, tb.PMFWindow()), nil
}

// JobTimeDistribution returns the exact distribution of the job completion
// time — the distribution whose mean is the paper's E_j (equation (7)). On a
// homogeneous fleet it is T + O·max over W tasks of the burst counts, read
// off the binomial tables; any other fleet takes the fleet kernel's merged
// lattice (fleet.go).
func JobTimeDistribution(f Fleet) (TimeDistribution, error) {
	p, ok := f.homogeneous()
	if !ok {
		if err := f.Validate(); err != nil {
			return TimeDistribution{}, err
		}
		groups := resolveFleetGroups(f)
		defer releaseGroups(groups)
		times, probs := fleetJobPMF(groups, f.O)
		return TimeDistribution{Times: times, Probs: probs}, nil
	}
	if err := p.Validate(); err != nil {
		return TimeDistribution{}, err
	}
	t := p.TaskDemand()
	n := p.trials()
	if p.O == 0 || p.P == 0 || n == 0 {
		return TimeDistribution{Times: []float64{t}, Probs: []float64{1}}, nil
	}
	tb := borrowTables(n, p.P)
	defer tb.release()
	return burstCountToTimes(t, p.O, tb.Lo, tb.maxPMFPrefix(p.W)), nil
}

// burstCountToTimes maps a burst-count pmf window (pmf[i] is the probability
// of lo+i bursts) onto completion times, trimming the negligible top tail so
// the tables stay compact. For large task demands the window is already the
// O(√T) mass window, so the distribution never materializes the empty bulk
// of the support.
func burstCountToTimes(t, o float64, lo int, pmf []float64) TimeDistribution {
	hi := len(pmf) - 1
	for hi > 0 && pmf[hi] < 1e-15 {
		hi--
	}
	d := TimeDistribution{
		Times: make([]float64, 0, hi+1),
		Probs: make([]float64, 0, hi+1),
	}
	var kept float64
	for k := 0; k <= hi; k++ {
		d.Times = append(d.Times, t+float64(lo+k)*o)
		d.Probs = append(d.Probs, pmf[k])
		kept += pmf[k]
	}
	// Fold the trimmed mass into the last kept point to stay normalized.
	if rem := 1 - kept; rem > 0 {
		d.Probs[len(d.Probs)-1] += rem
	}
	return d
}

// DeadlineProb returns P(job completes within the deadline) — the
// deliverable a batch scheduler wants from the model.
func DeadlineProb(f Fleet, deadline float64) (float64, error) {
	d, err := JobTimeDistribution(f)
	if err != nil {
		return 0, err
	}
	return 1 - d.TailProb(deadline), nil
}

// AnalyzeGumbel approximates E[max of W iid Bin(T,P)] with the classic
// extreme-value (Gumbel) asymptotic
//
//	E[max] ≈ μ + σ·(a_W + γ/ln-term)    a_W = sqrt(2 ln W) - (ln ln W + ln 4π)/(2 sqrt(2 ln W))
//
// applied to the normal approximation of the binomial. It is O(1) instead
// of O(√T): the extreme-value step needs only the closed-form moments N·P
// and N·P·(1−P), so it deliberately does not touch the (N, P) table memo —
// a pure-Gumbel sweep over many distinct points must not build (or evict)
// kernel tables the exact paths are sharing. Accuracy is benchmarked
// against the exact computation in BenchmarkAblationGumbel.
func AnalyzeGumbel(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	t := p.TaskDemand()
	u := p.Utilization()
	r := Result{Fleet: p.Fleet(), W: p.W, T: t, U: u}
	n := p.trials()
	bin := Binomial{N: n, P: p.P}
	r.EBurstsPerTsk = bin.Mean()
	r.ETask = t + p.O*bin.Mean()
	switch {
	case p.O == 0 || p.P == 0 || n == 0:
		r.EJob = t
	case p.W == 1:
		r.EJob = r.ETask
		r.EMaxBursts = bin.Mean()
	default:
		mu := bin.Mean()
		sigma := math.Sqrt(bin.Variance())
		em := mu + sigma*gumbelShift(p.W)
		if em > float64(n) {
			em = float64(n)
		}
		if em < mu {
			em = mu
		}
		r.EMaxBursts = em
		r.EJob = t + p.O*em
	}
	r.Metrics = metricsFor(p, u, r.EJob)
	return r, nil
}

// gumbelShift is a_W + γ/sqrt(2 ln W): the expected maximum of w iid
// standard normals in the extreme-value asymptotic, 0 for w too small for
// the asymptotic to apply.
func gumbelShift(w int) float64 {
	l := math.Log(float64(w))
	if l <= 0.5 {
		return 0
	}
	const gamma = 0.5772156649015329 // Euler–Mascheroni
	s := math.Sqrt(2 * l)
	return s - (math.Log(l)+math.Log(4*math.Pi))/(2*s) + gamma/s
}
