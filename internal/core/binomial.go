// Package core implements the analytical model of Leutenegger & Sun,
// "Distributed Computing Feasibility in a Non-Dedicated Homogeneous
// Distributed System" (ICASE 93-65, Supercomputing '93).
//
// Notation (the paper's Table 1):
//
//	J   total demand of the parallel job
//	W   number of workstations in the system
//	T   demand of one parallel task, T = J/W
//	O   time an owner process uses the workstation per burst
//	U   utilization of a workstation by its owner
//	P   probability the owner requests the processor in a time step
//	E_t mean expected task completion time
//	E_j mean expected job completion time
//
// The model is discrete time. The owner of each workstation cycles between
// thinking (geometric with mean 1/P) and using the workstation for a
// deterministic O units; owner processes have preemptive priority over the
// parallel task, and the task is guaranteed one unit of progress between
// owner bursts. Consequently the number of owner bursts hitting a task of
// demand T is Binomial(T, P) (paper equation (2)) and
//
//	E_t = T + O · E[Bin(T,P)]                  (equation (3))
//	E_j = T + O · E[max of W iid Bin(T,P)]     (equations (4)-(7))
//	U   = O / (O + 1/P)                        (equation (8))
package core

import (
	"fmt"
	"math"
)

// Binomial is the distribution of the number of owner interruptions hitting
// one parallel task: N trials (one interruption opportunity per unit of task
// progress) each succeeding with probability P.
type Binomial struct {
	N int
	P float64
}

// Validate reports whether the distribution parameters are usable.
func (b Binomial) Validate() error {
	if b.N < 0 {
		return fmt.Errorf("core: binomial trials must be >= 0, got %d", b.N)
	}
	if b.P < 0 || b.P > 1 || math.IsNaN(b.P) {
		return fmt.Errorf("core: binomial probability must be in [0,1], got %v", b.P)
	}
	return nil
}

// Mean is N·P.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// Variance is N·P·(1-P).
func (b Binomial) Variance() float64 { return float64(b.N) * b.P * (1 - b.P) }

// LogPMF returns ln P(X = k), or -Inf outside the support. It is evaluated
// in the log domain (via Lgamma) so that large T cannot underflow: the
// scaled-problem ablations push T into the hundreds of thousands. This is
// the reference kernel: the fast path (tables.go) anchors one log-domain
// evaluation at the mode and extends it by the ratio recurrence, and the
// property tests pit the two against each other.
func (b Binomial) LogPMF(k int) float64 {
	if k < 0 || k > b.N {
		return math.Inf(-1)
	}
	switch b.P {
	case 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case 1:
		if k == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return logChoose(b.N, k) + float64(k)*math.Log(b.P) + float64(b.N-k)*math.Log1p(-b.P)
}

// PMF returns P(X = k), the paper's Bin(T, n, P) of equation (2).
func (b Binomial) PMF(k int) float64 { return math.Exp(b.LogPMF(k)) }

// CDF returns P(X <= k), the paper's S[n] of equation (4), by direct
// summation of the pmf.
func (b Binomial) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= b.N {
		return 1
	}
	var sum float64
	for i := 0; i <= k; i++ {
		sum += b.PMF(i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// PMFTable returns the full pmf over {0, ..., N}, computed by the ratio
// recurrence anchored at the mode (one Lgamma triple for the whole table
// instead of three per entry). Entries whose true value is below the
// smallest denormal underflow to 0, exactly as the log-domain reference
// does. Callers that only need the mass window should use Tables instead —
// the dense slice is inherently O(N).
func (b Binomial) PMFTable() []float64 {
	return fullPMFTable(b.N, b.P)
}

// CDFTable returns S[0..N] with S[N] clamped to exactly 1, so that order
// statistics built on top of it are proper distributions.
func (b Binomial) CDFTable() []float64 {
	pmf := b.PMFTable()
	s := make([]float64, b.N+1)
	var run float64
	for k, p := range pmf {
		run += p
		if run > 1 {
			run = 1
		}
		s[k] = run
	}
	s[b.N] = 1
	return s
}

// ExpectedMaxOfIID returns E[max of w iid copies of b], the expectation the
// paper forms through Max[W,n] = C[W,n] − C[W,n−1] (equations (5)-(6)).
// We use the equivalent tail-sum identity
//
//	E[max] = Σ_{n=0}^{N-1} (1 − S[n]^w)
//
// which avoids the cancellation C[n]−C[n−1] entirely. It is served by the
// shared (N, P)-memoized tables, so repeated calls at different w — a W-grid
// sweep, a threshold bisection — pay for one table total.
func (b Binomial) ExpectedMaxOfIID(w int) float64 {
	if w < 1 {
		panic("core: ExpectedMaxOfIID requires w >= 1")
	}
	if b.N == 0 || b.P == 0 {
		return 0
	}
	if b.P == 1 {
		return float64(b.N)
	}
	t := borrowTables(b.N, b.P)
	defer t.release()
	return t.ExpectedMax(w)
}

// MaxPMFTable returns the paper's Max[W, n] for n in {0, ..., N}: the
// probability that the busiest of w tasks suffers exactly n interruptions.
// The dense slice is O(N); entries outside the tables' mass window are 0.
func (b Binomial) MaxPMFTable(w int) []float64 {
	if w < 1 {
		panic("core: MaxPMFTable requires w >= 1")
	}
	t := borrowTables(b.N, b.P)
	defer t.release()
	out := make([]float64, b.N+1)
	copy(out[t.Lo:t.Hi+1], t.MaxPMFWindow(w))
	return out
}

// logChoose is ln C(n, k) via the log-gamma function.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
