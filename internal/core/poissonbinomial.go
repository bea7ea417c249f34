package core

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The burst-count distribution of a heterogeneous fleet: the homogeneous
// model reduces every quantity to Bin(N, P), while the total burst count
// of a fleet whose stations differ in availability is S = Σ_g
// Bin(count_g, p_g) — the Poisson binomial, grouped by equal success
// probability. The fleet model reads only its closed-form mean (fleet.go);
// this library kernel serves callers that want the whole distribution.
// The same three tricks that make BinomialTables cheap apply group-wise:
//
//   - each group's window comes from the shared ratio-recurrence tables of
//     tables.go (one Lgamma triple per distinct (count, p)),
//   - groups are convolved window-against-window, so a fleet of G groups
//     costs O(Σ window_g · running window) instead of O(N²) dense work, and
//   - results are memoized process-wide, keyed by the sorted multiset of
//     (p, count) pairs, in the same sharded-LRU layout as the table memo.
//
// A single-group input is exactly Bin(count, p): it delegates to Tables and
// shares that table's slices bit-for-bit, so homogeneous callers pay
// nothing for the generalization. Above pbApproxCutoff total trials the
// pmf is built by a refined-normal (second-order Edgeworth) approximation
// instead of the exact convolution; the exact DP is cross-validated against
// big.Float reference arithmetic in poissonbinomial_test.go.

// PBGroup is one homogeneous slice of a Poisson-binomial sum: Count
// independent Bernoulli(P) trials.
type PBGroup struct {
	P     float64
	Count int
}

const (
	// pbApproxCutoff is the largest total trial count built by exact
	// group convolution; above it the refined-normal approximation is
	// used. The exact-path acceptance bar (1e-9 vs high-precision
	// reference at N = 1024) sits far below the cutoff.
	pbApproxCutoff = 1 << 15
	// pbApproxSigmas is the half-width, in standard deviations, of the
	// approximate path's support window.
	pbApproxSigmas = 10.0
)

// PoissonBinomialTables is the pmf/cdf of S = Σ_g Bin(count_g, p_g) over
// the support window [Lo, Hi], in the same layout as BinomialTables.
// Outside the window the pmf is treated as 0 and the cdf as 0 (below Lo)
// or 1 (above Hi).
type PoissonBinomialTables struct {
	// N is the total trial count Σ count_g.
	N int
	// Groups is the canonical (sorted, merged) group multiset.
	Groups []PBGroup
	Lo     int
	Hi     int
	// Approx reports that the table was built by the refined-normal
	// approximation rather than the exact convolution.
	Approx bool

	mu, sigma2 float64
	pmf        []float64
	cdf        []float64
	tail       []float64
}

// PoissonBinomial returns the (memoized) tables for the Poisson-binomial
// sum described by groups. The returned value is shared and must not be
// modified.
func PoissonBinomial(groups []PBGroup) (*PoissonBinomialTables, error) {
	canon, err := canonicalPBGroups(groups)
	if err != nil {
		return nil, err
	}
	if len(canon) == 1 {
		// Homogeneous: exactly Bin(count, p). Delegate to the shared
		// binomial memo and alias its slices, so the collapse is
		// bit-for-bit the Tables(n, p) path.
		g := canon[0]
		bt := Tables(g.Count, g.P)
		return &PoissonBinomialTables{
			N:      g.Count,
			Groups: canon,
			Lo:     bt.Lo,
			Hi:     bt.Hi,
			mu:     bt.Mean(),
			sigma2: bt.Variance(),
			pmf:    bt.pmf,
			cdf:    bt.cdf,
			tail:   bt.tail,
		}, nil
	}

	key := pbKey(canon)
	s := pbShardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.hits++
		t := el.Value.(*pbEntry).t
		s.mu.Unlock()
		return t, nil
	}
	s.misses++
	s.mu.Unlock()

	// Build outside the lock; a racing duplicate build wastes work, never
	// correctness.
	t := newPoissonBinomialTables(canon)

	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		t = el.Value.(*pbEntry).t
	} else {
		s.entries[key] = s.order.PushFront(&pbEntry{key: key, t: t})
		for len(s.entries) > pbShardCap {
			back := s.order.Back()
			s.order.Remove(back)
			delete(s.entries, back.Value.(*pbEntry).key)
		}
	}
	s.mu.Unlock()
	return t, nil
}

// canonicalPBGroups validates, sorts by p and merges equal-p groups, so the
// memo key — and the table itself — depends only on the multiset.
func canonicalPBGroups(groups []PBGroup) ([]PBGroup, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: poisson binomial needs at least one group")
	}
	out := make([]PBGroup, 0, len(groups))
	for _, g := range groups {
		switch {
		case g.Count < 1:
			return nil, fmt.Errorf("core: poisson binomial group count must be >= 1, got %d", g.Count)
		case g.P < 0 || g.P > 1 || math.IsNaN(g.P):
			return nil, fmt.Errorf("core: poisson binomial probability must be in [0,1], got %v", g.P)
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	merged := out[:1]
	for _, g := range out[1:] {
		if last := &merged[len(merged)-1]; last.P == g.P {
			last.Count += g.Count
		} else {
			merged = append(merged, g)
		}
	}
	return merged, nil
}

// pbKey is the memo key: the canonical multiset rendered compactly.
func pbKey(canon []PBGroup) string {
	var b strings.Builder
	for _, g := range canon {
		b.WriteString(strconv.FormatUint(math.Float64bits(g.P), 16))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(g.Count))
		b.WriteByte(';')
	}
	return b.String()
}

const (
	pbCacheCap   = 128
	pbShardCount = 8
	pbShardCap   = pbCacheCap / pbShardCount
)

type pbEntry struct {
	key string
	t   *PoissonBinomialTables
}

type pbShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List
	hits    uint64
	misses  uint64
}

var pbShards = func() [pbShardCount]*pbShard {
	var out [pbShardCount]*pbShard
	for i := range out {
		out[i] = &pbShard{entries: make(map[string]*list.Element), order: list.New()}
	}
	return out
}()

func pbShardFor(key string) *pbShard {
	var h uint64 = 1469598103934665603 // FNV-64a
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return pbShards[h&(pbShardCount-1)]
}

// PoissonBinomialCacheStats reports the cumulative hit/miss counts of the
// shared Poisson-binomial memo, for tests of cross-caller sharing.
func PoissonBinomialCacheStats() (hits, misses uint64) {
	for _, s := range pbShards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// newPoissonBinomialTables builds the tables for a canonical multi-group
// multiset.
func newPoissonBinomialTables(canon []PBGroup) *PoissonBinomialTables {
	t := &PoissonBinomialTables{Groups: canon}
	for _, g := range canon {
		t.N += g.Count
		t.mu += float64(g.Count) * g.P
		t.sigma2 += float64(g.Count) * g.P * (1 - g.P)
	}
	if t.N > pbApproxCutoff {
		t.buildApprox()
	} else {
		t.buildExact()
	}
	t.finishFromPMF()
	return t
}

// buildExact convolves the group windows. Each group's window is the
// shared BinomialTables mass window, so the omitted mass is at most
// G·tablesTailMass; a final renormalization absorbs it together with the
// anchor rounding, exactly as newBinomialTables does.
func (t *PoissonBinomialTables) buildExact() {
	acc := []float64{1}
	lo := 0
	for _, g := range t.Groups {
		bt := Tables(g.Count, g.P)
		win := bt.pmf
		next := make([]float64, len(acc)+len(win)-1)
		for i, a := range acc {
			if a == 0 {
				continue
			}
			for j, w := range win {
				next[i+j] += a * w
			}
		}
		acc = next
		lo += bt.Lo
	}
	// Trim convolution edges that fell below the table tail threshold: the
	// running window is the sum of per-group windows and overshoots the
	// true mass window of the sum.
	first, last := 0, len(acc)-1
	for first < last && acc[first] < tablesTailEps {
		first++
	}
	for last > first && acc[last] < tablesTailEps {
		last--
	}
	t.Lo = lo + first
	t.Hi = lo + last
	t.pmf = acc[first : last+1]
}

// buildApprox fills the pmf from the refined-normal (second-order
// Edgeworth) cdf with continuity correction: the skew term restores the
// asymmetry a heterogeneous sum keeps even at large N.
func (t *PoissonBinomialTables) buildApprox() {
	t.Approx = true
	sigma := math.Sqrt(t.sigma2)
	var kappa3 float64
	for _, g := range t.Groups {
		kappa3 += float64(g.Count) * g.P * (1 - g.P) * (1 - 2*g.P)
	}
	skew := kappa3 / (6 * sigma * t.sigma2)
	cdf := func(k int) float64 {
		x := (float64(k) + 0.5 - t.mu) / sigma
		v := 0.5*math.Erfc(-x/math.Sqrt2) - skew*(x*x-1)*math.Exp(-x*x/2)/math.Sqrt(2*math.Pi)
		switch {
		case v < 0:
			return 0
		case v > 1:
			return 1
		}
		return v
	}
	lo := int(math.Floor(t.mu - pbApproxSigmas*sigma))
	if lo < 0 {
		lo = 0
	}
	hi := int(math.Ceil(t.mu + pbApproxSigmas*sigma))
	if hi > t.N {
		hi = t.N
	}
	t.Lo, t.Hi = lo, hi
	t.pmf = make([]float64, hi-lo+1)
	prev := 0.0
	if lo > 0 {
		prev = cdf(lo - 1)
	}
	for k := lo; k <= hi; k++ {
		c := cdf(k)
		v := c - prev
		if v < 0 {
			v = 0
		}
		t.pmf[k-lo] = v
		prev = c
	}
}

// finishFromPMF renormalizes and derives the cdf and top-down tail, in the
// same order (and with the same clamps) as newBinomialTables.
func (t *PoissonBinomialTables) finishFromPMF() {
	var mass float64
	for _, v := range t.pmf {
		mass += v
	}
	for i := range t.pmf {
		t.pmf[i] /= mass
	}
	t.cdf = make([]float64, len(t.pmf))
	run := 0.0
	for i, v := range t.pmf {
		run += v
		if run > 1 {
			run = 1
		}
		t.cdf[i] = run
	}
	if t.Hi == t.N {
		t.cdf[len(t.cdf)-1] = 1
	}
	t.tail = make([]float64, len(t.pmf))
	down := 0.0
	for i := len(t.pmf) - 1; i >= 0; i-- {
		t.tail[i] = down
		down += t.pmf[i]
		if down > 1 {
			down = 1
		}
	}
}

// Mean is Σ count_g·p_g.
func (t *PoissonBinomialTables) Mean() float64 { return t.mu }

// Variance is Σ count_g·p_g·(1−p_g).
func (t *PoissonBinomialTables) Variance() float64 { return t.sigma2 }

// PMF returns P(S = k); 0 outside the window.
func (t *PoissonBinomialTables) PMF(k int) float64 {
	if k < t.Lo || k > t.Hi {
		return 0
	}
	return t.pmf[k-t.Lo]
}

// CDF returns P(S <= k): 0 below the window, 1 above it.
func (t *PoissonBinomialTables) CDF(k int) float64 {
	switch {
	case k < t.Lo:
		return 0
	case k > t.Hi:
		return 1
	}
	return t.cdf[k-t.Lo]
}

// Tail returns P(S > k) from the top-down accumulation, which keeps full
// relative precision in the upper tail.
func (t *PoissonBinomialTables) Tail(k int) float64 {
	switch {
	case k < t.Lo:
		return 1
	case k > t.Hi:
		return 0
	}
	return t.tail[k-t.Lo]
}

// PMFWindow returns the window pmf, aligned so slice index i holds
// P(S = Lo+i). The slice is shared and must not be modified.
func (t *PoissonBinomialTables) PMFWindow() []float64 { return t.pmf }
