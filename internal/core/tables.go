package core

import (
	"container/list"
	"math"
	"sort"
	"sync"
)

// The analytic hot path: every quantity the model produces — E_t, E_j, the
// completion-time distributions, deadline probabilities and the threshold
// searches built on them — reduces to order statistics of Bin(N, P). The
// original kernel rebuilt an O(N) pmf/cdf table with three Lgamma+Exp per
// entry on every Analyze call, and rebuilt it per W even though the table
// depends only on (N, P). BinomialTables replaces that with
//
//   - a single log-domain anchor at the mode (one Lgamma triple per table)
//     extended by the multiplicative ratio recurrence
//     pmf(k+1) = pmf(k) · (N−k)/(k+1) · P/(1−P),
//   - truncation of the support to the mass window around N·P once N is
//     large (the omitted tail is below tablesTailMass), turning O(N) work
//     and memory into O(√N), and
//   - a process-wide memo keyed by (N, P), shared by every consumer —
//     Analyze, the distributions, the threshold/optimize/scaled searches and
//     all sweep workers — so a W-grid or a bisection at fixed (T, P) pays
//     for one table total, and
//   - admission on the second sighting, the "doorkeeper" of TinyLFU
//     (Einziger, Friedman & Manes, ACM TOS 2017). Every core consumer that
//     reads a table within one call — the homogeneous ExpectedMax, the fleet
//     groups, the distributions — goes through one scoped lookup,
//     borrowTables, paired with release. On a key's first sighting the table
//     is built into a sync.Pool buffer, answered from and handed back, and
//     only the key's fingerprint is recorded in a small ring per shard; the
//     second sighting builds the table and inserts it. A frontier or sweep
//     point at a fresh (T, P) therefore allocates nothing and evicts no hot
//     entry, while keys that repeat become resident. The arithmetic is the
//     same either way, so answers do not depend on residency.
//
// Resident tables are immutable after construction and therefore safe to
// share across goroutines without locking; only the memo map itself is
// locked. A borrowed scratch table is private to its borrower until
// released.

const (
	// tablesFullSupportMax is the largest N whose tables keep the exact full
	// support {0..N}; beyond it the support is truncated to the mass window.
	tablesFullSupportMax = 2048
	// tablesTailEps stops the window extension: entries below it are
	// excluded. The pmf decays at least geometrically past the stopping
	// points (it is unimodal and already ≥8σ out), so the total omitted
	// mass is below tablesTailMass.
	tablesTailEps = 1e-18
	// tablesTailMass bounds the probability mass outside [Lo, Hi].
	tablesTailMass = 1e-15
)

// BinomialTables is the pmf/cdf of Bin(N, P) over the support window
// [Lo, Hi]. Outside the window the pmf is treated as 0 and the cdf as 0
// (below Lo) or 1 (above Hi); for N ≤ tablesFullSupportMax the window is the
// full support and the tables are exact.
type BinomialTables struct {
	N  int
	P  float64
	Lo int // first supported burst count, inclusive
	Hi int // last supported burst count, inclusive

	pmf []float64 // pmf[k-Lo] = P(X = k)
	cdf []float64 // cdf[k-Lo] = P(X <= k), clamped to [0, 1]
	// tail[k-Lo] = P(X > k), accumulated from the top of the window
	// downward. Near the upper tail this is far more accurate than 1−cdf:
	// the bottom-up running sum floors at the table's total-mass rounding
	// error (~1e-12), while the top-down sum keeps full relative precision
	// of the tiny tail itself — exactly what the order-statistic fold
	// (1 − S^w ≈ w·tail for S near 1) is sensitive to.
	tail []float64

	// emMu guards emMemo, the per-W ExpectedMax memo. The distribution
	// tables above stay immutable and lock-free; only repeated identical
	// (N, P, W) solves take this lock, to skip the order-statistic fold.
	emMu   sync.Mutex
	emMemo map[int]float64

	// scratch marks a pooled table lent for one call (borrowTables): it
	// keeps no ExpectedMax memo and goes back to the pool on release.
	scratch bool
}

// Tables returns the (memoized) tables for Bin(n, p). The table is made
// resident on first use — the caller holds a long-lived pointer — so it
// skips the doorkeeper that the scoped lookup (borrowTables) applies. The
// returned value is shared and must not be modified.
func Tables(n int, p float64) *BinomialTables { return lookupTables(n, p, false) }

// borrowTables is the scoped lookup behind every core consumer that reads a
// table within one call: the homogeneous ExpectedMax, the fleet groups and
// the distributions. A resident table is returned as is. On a key's first
// sighting the table is built into a pooled scratch buffer and only the
// key's fingerprint is recorded; the second sighting builds the table and
// inserts it. The caller must not retain the table past its call and must
// hand it back with release.
func borrowTables(n int, p float64) *BinomialTables { return lookupTables(n, p, true) }

// release returns a borrowed scratch table to the pool; a resident table is
// left alone.
func (t *BinomialTables) release() {
	if t.scratch {
		tablesPool.Put(t)
	}
}

// tablesPool recycles the scratch tables of first sightings, so a key the
// memo never sees again costs no allocation.
var tablesPool = sync.Pool{New: func() any { return &BinomialTables{scratch: true} }}

// lookupTables serves Tables (admit on first use) and borrowTables (admit
// on the second sighting).
func lookupTables(n int, p float64, doorkeeper bool) *BinomialTables {
	key := tableKey{n: n, p: p}
	h := key.hash()
	s := tableShards[h&(tableShardCount-1)]
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.hits++
		t := el.Value.(*tableEntry).t
		s.mu.Unlock()
		return t
	}
	s.misses++
	admit := !doorkeeper || s.seenBefore(h)
	s.mu.Unlock()

	if !admit {
		t := tablesPool.Get().(*BinomialTables)
		t.build(n, p)
		return t
	}
	// Build outside the lock: tables are deterministic, so two goroutines
	// racing on the same key waste one build, never correctness.
	t := newBinomialTables(n, p)

	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		// A racing build won the insert; keep the resident table so every
		// caller of this key shares one value.
		s.order.MoveToFront(el)
		t = el.Value.(*tableEntry).t
	} else {
		s.entries[key] = s.order.PushFront(&tableEntry{key: key, t: t})
		for len(s.entries) > tableShardCap {
			// Evict in recency order, never the key just inserted: the memo
			// must stay bounded under adversarial parameter streams, but a
			// hot (N, P) that every sweep worker touches stays resident
			// (the old random map-order half-sweep could drop it mid-use).
			back := s.order.Back()
			s.order.Remove(back)
			delete(s.entries, back.Value.(*tableEntry).key)
			s.evictions++
		}
	}
	s.mu.Unlock()
	return t
}

// seenBefore is the doorkeeper: it reports whether the key hashed to h was
// sighted among the shard's last tableSeenSlots first sightings, and
// records it if not. The caller holds s.mu.
func (s *tableShard) seenBefore(h uint64) bool {
	fp := h | 1 // 0 marks an empty slot
	for _, v := range s.seen {
		if v == fp {
			return true
		}
	}
	s.seen[s.seenNext] = fp
	s.seenNext = (s.seenNext + 1) % tableSeenSlots
	return false
}

type tableKey struct {
	n int
	p float64
}

// tableEntry is the recency-list payload, carrying the key back for
// eviction.
type tableEntry struct {
	key tableKey
	t   *BinomialTables
}

const (
	// tableCacheCap bounds the memo's total residency across all shards.
	// Sized so a shard still holds a canonical sweep's working set (~100
	// distinct (N, P) keys across the whole memo) even when the key hash
	// distributes unevenly: the bound only exists to stop unbounded growth
	// under adversarial parameter streams, and tables are O(√T), so the
	// memory cost of headroom is small next to the cost of rebuilding a hot
	// table every grid pass.
	tableCacheCap = 256
	// tableShardCount splits the memo so concurrent sweep workers hitting
	// distinct (N, P) keys do not serialize on one mutex. Power of two.
	tableShardCount = 8
	// tableShardCap is each shard's recency-eviction bound.
	tableShardCap = tableCacheCap / tableShardCount
	// tableSeenSlots is the length of each shard's doorkeeper ring: a key
	// is admitted when it comes back before this many other keys are first
	// sighted on its shard — as many as the shard can hold resident.
	tableSeenSlots = tableShardCap
)

// tableShard is one slice of the memo: its own lock, map and recency list
// (front = most recently used).
type tableShard struct {
	mu      sync.Mutex
	entries map[tableKey]*list.Element
	order   *list.List
	hits    uint64
	misses  uint64
	// evictions counts entries dropped by the recency bound.
	evictions uint64
	// seen is the doorkeeper's ring of the fingerprints of the last
	// tableSeenSlots first sightings; seenNext is the slot written next.
	seen     [tableSeenSlots]uint64
	seenNext int
}

var tableShards = func() [tableShardCount]*tableShard {
	var out [tableShardCount]*tableShard
	for i := range out {
		out[i] = &tableShard{entries: make(map[tableKey]*list.Element), order: list.New()}
	}
	return out
}()

// hash mixes both n and p through a 64-bit finalizer. Its low bits pick the
// shard and the whole value is the doorkeeper's fingerprint, so keys that
// share p — every W-point of a sweep at one utilization — stay apart.
func (key tableKey) hash() uint64 {
	h := math.Float64bits(key.p) ^ uint64(key.n)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// TablesCacheStats reports the cumulative hit/miss counts of the shared
// table memo (summed across shards), for benchmarks and tests of
// cross-worker sharing. A hit is a lookup answered by a resident table;
// every other lookup is a miss, including a key's first sighting, which
// the doorkeeper answers from a scratch table without inserting it. The
// hit ratio — the benchmark's core.tables_hit_ratio — therefore reads lower
// than under insert-on-first-use while fewer table bytes are built.
func TablesCacheStats() (hits, misses uint64) {
	for _, s := range tableShards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// PoissonBinomialCacheStats returns 0, 0: no answer builds a
// Poisson-binomial distribution. Only bench/ reads it, for its
// core.pb_hit_ratio metric; dropping both is a later benchmark change.
func PoissonBinomialCacheStats() (hits, misses uint64) { return 0, 0 }

// tablesCacheEntries reports the memo's current residency, for the bound
// tests.
func tablesCacheEntries() int {
	n := 0
	for _, s := range tableShards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// pointMass reports whether Bin(n, p) is degenerate, and at which count.
func pointMass(n int, p float64) (at int, ok bool) {
	switch {
	case n == 0 || p == 0:
		return 0, true
	case p == 1:
		return n, true
	}
	return 0, false
}

// modeAnchor returns the mode of Bin(n, p) and the pmf there, evaluated in
// the log domain — the single Lgamma triple each table is anchored on.
func modeAnchor(n int, p float64) (mode int, pmfMode float64) {
	mode = int(math.Floor(float64(n+1) * p))
	if mode > n {
		mode = n
	}
	return mode, math.Exp(Binomial{N: n, P: p}.LogPMF(mode))
}

// newBinomialTables builds the tables for Bin(n, p) into a fresh value.
func newBinomialTables(n int, p float64) *BinomialTables {
	t := &BinomialTables{}
	t.build(n, p)
	return t
}

// build fills t with the tables for Bin(n, p), reusing t's buffers where
// they are large enough: a scratch table from the pool allocates nothing
// once warm, and a fresh table allocates exactly its window.
func (t *BinomialTables) build(n int, p float64) {
	t.N, t.P = n, p
	if at, ok := pointMass(n, p); ok {
		t.Lo, t.Hi = at, at
		t.pmf = append(t.pmf[:0], 1)
		t.cdf = append(t.cdf[:0], 1)
		t.tail = append(t.tail[:0], 0)
		return
	}
	mode, pmfMode := modeAnchor(n, p)

	lo, hi := 0, n
	if n > tablesFullSupportMax {
		lo, hi = windowBounds(n, p, mode, pmfMode)
	}
	t.Lo, t.Hi = lo, hi
	size := hi - lo + 1
	t.pmf = ratioPMF(resize(t.pmf, size), n, p, lo, hi, mode, pmfMode)

	// Renormalize: the log-domain anchor carries ~1 ulp of Lgamma error,
	// which scales the whole table uniformly (the window misses at most
	// tablesTailMass of true mass, far below the anchor error). Dividing by
	// the summed mass removes that common factor, leaving only the tiny
	// per-step recurrence drift.
	var mass float64
	for _, v := range t.pmf {
		mass += v
	}
	for i := range t.pmf {
		t.pmf[i] /= mass
	}

	t.cdf = resize(t.cdf, size)
	run := 0.0
	for i, v := range t.pmf {
		run += v
		if run > 1 {
			run = 1
		}
		t.cdf[i] = run
	}
	if hi == n {
		// Full upper support: force S[N] = 1 exactly so order statistics
		// built on the cdf are proper distributions.
		t.cdf[len(t.cdf)-1] = 1
	}
	t.tail = resize(t.tail, size)
	down := 0.0
	for i := len(t.pmf) - 1; i >= 0; i-- {
		t.tail[i] = down // P(X > Lo+i) excludes pmf[i] itself
		down += t.pmf[i]
		if down > 1 {
			down = 1 // accumulation rounding must not push a tail above 1
		}
	}
}

// resize returns buf resliced to n entries, or a new slice when buf is too
// small. Callers overwrite every entry.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// windowBounds walks outward from the mode until the pmf drops below
// tablesTailEps on each side, returning the truncated support.
func windowBounds(n int, p float64, mode int, pmfMode float64) (lo, hi int) {
	r := p / (1 - p)
	hi = mode
	for v := pmfMode; hi < n; {
		v *= r * float64(n-hi) / float64(hi+1)
		if v < tablesTailEps {
			break
		}
		hi++
	}
	lo = mode
	for v := pmfMode; lo > 0; {
		v *= float64(lo) / (r * float64(n-lo+1))
		if v < tablesTailEps {
			break
		}
		lo--
	}
	return lo, hi
}

// ratioPMF fills out (len hi−lo+1) with the pmf values for k in [lo, hi]
// by the two-sided ratio recurrence anchored at the mode, and returns it.
// mode must lie in [lo, hi].
func ratioPMF(out []float64, n int, p float64, lo, hi, mode int, pmfMode float64) []float64 {
	out[mode-lo] = pmfMode
	r := p / (1 - p)
	v := pmfMode
	for k := mode; k < hi; k++ {
		v *= r * float64(n-k) / float64(k+1)
		out[k+1-lo] = v
	}
	v = pmfMode
	for k := mode; k > lo; k-- {
		v *= float64(k) / (r * float64(n-k+1))
		out[k-1-lo] = v
	}
	return out
}

// fullPMFTable is the recurrence-based full-support table {0..N}, used by
// the compatibility methods that promise a dense slice.
func fullPMFTable(n int, p float64) []float64 {
	if at, ok := pointMass(n, p); ok {
		out := make([]float64, n+1)
		out[at] = 1
		return out
	}
	mode, pmfMode := modeAnchor(n, p)
	return ratioPMF(make([]float64, n+1), n, p, 0, n, mode, pmfMode)
}

// Mean is N·P.
func (t *BinomialTables) Mean() float64 { return float64(t.N) * t.P }

// Variance is N·P·(1−P).
func (t *BinomialTables) Variance() float64 { return float64(t.N) * t.P * (1 - t.P) }

// PMF returns P(X = k); 0 outside the window.
func (t *BinomialTables) PMF(k int) float64 {
	if k < t.Lo || k > t.Hi {
		return 0
	}
	return t.pmf[k-t.Lo]
}

// CDF returns P(X <= k): 0 below the window, 1 above it.
func (t *BinomialTables) CDF(k int) float64 {
	switch {
	case k < t.Lo:
		return 0
	case k > t.Hi:
		return 1
	}
	return t.cdf[k-t.Lo]
}

// PMFWindow returns the window pmf, aligned so slice index i holds
// P(X = Lo+i). The slice is shared and must not be modified.
func (t *BinomialTables) PMFWindow() []float64 { return t.pmf }

// ExpectedMax returns E[max of w iid Bin(N, P)] by the tail-sum identity
//
//	E[max] = Σ_{n=0}^{N-1} (1 − S[n]^w).
//
// Terms below the window have S[n] ≈ 0 and contribute 1 each; terms above it
// have S[n] ≈ 1 and contribute nothing. Each in-window term is evaluated as
// −expm1(w·log1p(−tail[n])) on the top-down tail, which keeps full relative
// precision where S ≈ 1 — computing 1 − S^w there floors at the table's
// total-mass rounding error and, summed over the support, that floor is
// exactly the regime a large-W order statistic amplifies.
func (t *BinomialTables) ExpectedMax(w int) float64 {
	if w < 1 {
		panic("core: ExpectedMax requires w >= 1")
	}
	if t.N == 0 || t.P == 0 {
		return 0
	}
	if t.P == 1 {
		return float64(t.N)
	}
	if t.scratch {
		return t.foldMax(w)
	}
	// Memoize per W: a sweep grid or bisection that revisits the same
	// (N, P, W) point — and every cache-missed re-solve behind it — pays
	// the O(window) fold once per table lifetime.
	t.emMu.Lock()
	if v, ok := t.emMemo[w]; ok {
		t.emMu.Unlock()
		return v
	}
	t.emMu.Unlock()
	sum := t.foldMax(w)
	t.emMu.Lock()
	if t.emMemo == nil {
		t.emMemo = make(map[int]float64)
	}
	if len(t.emMemo) < expectedMaxMemoCap {
		t.emMemo[w] = sum
	}
	t.emMu.Unlock()
	return sum
}

// foldMax is ExpectedMax's tail-sum fold over the window, for w >= 1 on a
// non-degenerate table.
func (t *BinomialTables) foldMax(w int) float64 {
	fw := float64(w)
	sum := float64(t.Lo)
	hi := t.Hi
	if hi > t.N-1 {
		hi = t.N - 1
	}
	for n := t.Lo; n <= hi; n++ {
		tau := t.tail[n-t.Lo]
		// 1−S^w ≤ w·τ, and τ is nonincreasing: all later terms are
		// negligible too.
		if fw*tau < 1e-18 {
			break
		}
		sum += -math.Expm1(fw * math.Log1p(-tau))
	}
	return sum
}

// expectedMaxMemoCap bounds each table's per-W memo: real workloads touch
// a handful of W values per (N, P); the cap only guards against
// adversarial W streams.
const expectedMaxMemoCap = 128

// MaxPMFWindow returns the paper's Max[W, n] — the probability that the
// busiest of w tasks suffers exactly n interruptions — over the window,
// aligned so slice index i holds Max[w, Lo+i]. The result is newly
// allocated and owned by the caller.
func (t *BinomialTables) MaxPMFWindow(w int) []float64 { return maxPMF(t.cdf, w) }

// maxPMFPrefix is MaxPMFWindow cut after the first cdf entry equal to
// exactly 1. Every later Max[w, n] is 1^w − 1^w = 0 exactly, so the prefix
// agrees with the window bit for bit wherever both are defined, and
// burstCountToTimes trims those zeros anyway. The cut only helps when the
// cdf's running sum rounds to 1 before the window ends; where it stalls a
// rounding step below 1, only the forced last entry is 1 and the prefix is
// the whole window. The cdf is nondecreasing, so a binary search finds the
// cut.
func (t *BinomialTables) maxPMFPrefix(w int) []float64 {
	cut := len(t.cdf)
	if i := sort.SearchFloat64s(t.cdf, 1); i < cut {
		cut = i + 1
	}
	return maxPMF(t.cdf[:cut], w)
}

// maxPMF differences the w-th powers of a cdf window into Max[w, ·].
func maxPMF(cdf []float64, w int) []float64 {
	if w < 1 {
		panic("core: MaxPMFWindow requires w >= 1")
	}
	out := powWindow(cdf, w)
	prev := 0.0
	for i, c := range out {
		out[i] = c - prev
		if out[i] < 0 {
			out[i] = 0
		}
		prev = c
	}
	return out
}

// powWindow raises every entry of s to the w-th power with one shared
// square-and-multiply ladder: O(len·log w) multiplications instead of a
// math.Pow (log+exp) per entry. The ladder accumulates at most ~2·log2(w)
// roundings per entry, well inside the 1e-12 agreement the tests pin
// against math.Pow.
func powWindow(s []float64, w int) []float64 {
	acc := make([]float64, len(s))
	for i := range acc {
		acc[i] = 1
	}
	base := append([]float64(nil), s...)
	for e := w; ; {
		if e&1 == 1 {
			for i := range acc {
				acc[i] *= base[i]
			}
		}
		e >>= 1
		if e == 0 {
			break
		}
		for i := range base {
			base[i] *= base[i]
		}
	}
	return acc
}
