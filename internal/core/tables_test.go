package core

import (
	"math"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// ---- Reference implementations: the pre-kernel (PR-1) algorithms ----
//
// The fast kernel (tables.go) anchors one log-domain evaluation at the mode
// and extends it by the ratio recurrence, truncating the support to the mass
// window. These references evaluate every entry independently in the log
// domain — three Lgamma per entry, no truncation — exactly as core.Analyze
// did before the kernel rework, and the tests below pit the two against each
// other across regimes.

func refPMFTable(n int, p float64) []float64 {
	b := Binomial{N: n, P: p}
	t := make([]float64, n+1)
	for k := range t {
		t[k] = math.Exp(b.LogPMF(k))
	}
	return t
}

func refCDFTable(n int, p float64) []float64 {
	pmf := refPMFTable(n, p)
	s := make([]float64, n+1)
	run := 0.0
	for k, v := range pmf {
		run += v
		if run > 1 {
			run = 1
		}
		s[k] = run
	}
	s[n] = 1
	return s
}

func refExpectedMax(n int, p float64, w int) float64 {
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return float64(n)
	}
	s := refCDFTable(n, p)
	fw := float64(w)
	var sum float64
	for k := 0; k < n; k++ {
		tail := 1 - math.Pow(s[k], fw)
		if tail < 1e-18 && fw*(1-s[k]) < 1e-18 {
			break
		}
		sum += tail
	}
	return sum
}

// bigExpectedMax computes E[max of w iid Bin(n, p)] with 200-bit floats:
// the gold standard the float64 implementations are judged against.
func bigExpectedMax(n int, p float64, w int) float64 {
	const prec = 200
	bp := new(big.Float).SetPrec(prec).SetFloat64(p)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	q := new(big.Float).SetPrec(prec).Sub(one, bp)
	// pmf(0) = (1-p)^n by squaring.
	pmf := new(big.Float).SetPrec(prec).SetInt64(1)
	base := new(big.Float).SetPrec(prec).Copy(q)
	for e := n; e > 0; e >>= 1 {
		if e&1 == 1 {
			pmf.Mul(pmf, base)
		}
		base.Mul(base, base)
	}
	r := new(big.Float).SetPrec(prec).Quo(bp, q)
	S := new(big.Float).SetPrec(prec)
	sum := new(big.Float).SetPrec(prec)
	mean := float64(n) * p
	for k := 0; k < n; k++ {
		S.Add(S, pmf)
		// Shortcut S^w < 2^-300: the term is 1 to far below float64
		// resolution, and aligning the enormous exponent gap in 1 − S^w
		// makes big.Float subtraction O(gap) — quadratic over the loop.
		if exp := S.MantExp(nil); float64(w)*float64(exp) < -300 {
			sum.Add(sum, one)
		} else {
			// term = 1 - S^w by squaring.
			sw := new(big.Float).SetPrec(prec).SetInt64(1)
			sb := new(big.Float).SetPrec(prec).Copy(S)
			for e := w; e > 0; e >>= 1 {
				if e&1 == 1 {
					sw.Mul(sw, sb)
				}
				sb.Mul(sb, sb)
			}
			term := new(big.Float).SetPrec(prec).Sub(one, sw)
			sum.Add(sum, term)
			if tf, _ := term.Float64(); tf < 1e-25 && float64(k) > mean {
				break
			}
		}
		// pmf(k+1) = pmf(k) · (n-k)/(k+1) · p/(1-p). The ratio must be formed
		// in big arithmetic: a float64 ratio's rounding, accumulated over
		// ~10^4 steps, is enough to stall S measurably below 1 and keep the
		// loop from terminating.
		fac := new(big.Float).SetPrec(prec).Quo(
			new(big.Float).SetPrec(prec).SetInt64(int64(n-k)),
			new(big.Float).SetPrec(prec).SetInt64(int64(k+1)))
		pmf.Mul(pmf, fac)
		pmf.Mul(pmf, r)
	}
	f, _ := sum.Float64()
	return f
}

// refAnalyze is Analyze as implemented before the fast kernel: same model,
// reference order-statistic computation.
func refAnalyze(p Params) (etask, ejob float64) {
	t := p.TaskDemand()
	n := int(math.Round(t))
	mean := float64(n) * p.P
	etask = t + p.O*mean
	if p.O == 0 || p.P == 0 || n == 0 {
		return etask, t
	}
	return etask, t + p.O*refExpectedMax(n, p.P, p.W)
}

// ---- Recurrence vs log-domain reference ----

func TestTablesMatchReferenceSmallN(t *testing.T) {
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		p := (float64(pRaw) + 0.5) / (math.MaxUint16 + 1)
		tb := newBinomialTables(n, p)
		if tb.Lo != 0 || tb.Hi != n {
			return false // small N must keep the exact full support
		}
		ref := refPMFTable(n, p)
		for k := 0; k <= n; k++ {
			a, b := tb.PMF(k), ref[k]
			if math.Abs(a-b) > 1e-9*math.Max(a, b)+1e-250 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTablesMatchReferenceExtremeP(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{500000, 1e-8},     // P → 0: window collapses onto 0
		{500000, 1e-5},     // mean 5
		{100000, 1 - 1e-9}, // P → 1: window collapses onto N
		{100000, 0.999},
		{1000000, 0.5},  // widest window the support allows
		{1000000, 0.01}, // the scaled-problem regime
	}
	for _, c := range cases {
		tb := newBinomialTables(c.n, c.p)
		b := Binomial{N: c.n, P: c.p}
		var mass float64
		for k := tb.Lo; k <= tb.Hi; k++ {
			mass += tb.PMF(k)
			ref := math.Exp(b.LogPMF(k))
			got := tb.PMF(k)
			if math.Abs(got-ref) > 5e-9*math.Max(got, ref)+1e-250 {
				t.Errorf("n=%d p=%g k=%d: recurrence %v vs reference %v", c.n, c.p, k, got, ref)
			}
		}
		if math.Abs(mass-1) > 1e-11 {
			t.Errorf("n=%d p=%g: window mass %v, want 1 within 1e-11", c.n, c.p, mass)
		}
	}
}

func TestTablesWindowIsSqrtScale(t *testing.T) {
	// The truncation must turn O(N) into O(√N): the window around N·P is a
	// bounded number of standard deviations wide.
	for _, c := range []struct {
		n int
		p float64
	}{{100000, 0.5}, {1000000, 0.1}, {1000000, 0.9}} {
		tb := newBinomialTables(c.n, c.p)
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if width := float64(tb.Hi - tb.Lo + 1); width > 40*sd {
			t.Errorf("n=%d p=%g: window width %v exceeds 40σ=%v", c.n, c.p, width, 40*sd)
		}
		mean := float64(c.n) * c.p
		if float64(tb.Lo) > mean || float64(tb.Hi) < mean {
			t.Errorf("n=%d p=%g: window [%d,%d] misses the mean %v", c.n, c.p, tb.Lo, tb.Hi, mean)
		}
	}
}

func TestTablesExpectedMaxMatchesBigFloat(t *testing.T) {
	// The gold standard: 200-bit arithmetic. The fast kernel's top-down
	// tails and expm1/log1p fold must track it to full float64 fidelity —
	// tighter than the log-domain reference manages (see the test below).
	for _, c := range []struct {
		n int
		p float64
		w int
	}{
		{50, 0.3, 10},
		{1000, 0.01, 100},
		{1000, 0.01, 1000},
		{2048, 0.5, 60},
		{100000, 0.011, 100},
	} {
		got := newBinomialTables(c.n, c.p).ExpectedMax(c.w)
		want := bigExpectedMax(c.n, c.p, c.w)
		if math.Abs(got-want) > 1e-10*(1+want) {
			t.Errorf("n=%d p=%g w=%d: E[max] %v vs big-float %v", c.n, c.p, c.w, got, want)
		}
	}
}

func TestTablesExpectedMaxMatchesReference(t *testing.T) {
	// Old-vs-new agreement. The reference computes (1 − S^w) on a bottom-up
	// cdf, whose upper tail floors at the table's total-mass rounding error
	// (~1e-12); over N terms at width w that floor contributes up to
	// ~w·N·1e-12 — an error of the *reference*, verified against big-float
	// above. The tolerance accounts for it.
	// Larger n pairs with the big-float test and TestAnalyzeParityLargeT:
	// there the reference's own error dominates any sensible tolerance.
	for _, c := range []struct {
		n int
		p float64
	}{{50, 0.3}, {1000, 0.01}, {5000, 0.2}} {
		tb := newBinomialTables(c.n, c.p)
		for _, w := range []int{1, 2, 10, 100} {
			got := tb.ExpectedMax(w)
			ref := refExpectedMax(c.n, c.p, w)
			tol := 1e-9*(1+ref) + 2e-11*float64(w)*float64(c.n)
			if math.Abs(got-ref) > tol {
				t.Errorf("n=%d p=%g w=%d: E[max] %v vs reference %v (tol %v)", c.n, c.p, w, got, ref, tol)
			}
		}
	}
}

func TestTablesExpectedMaxOfOneIsMean(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{2048, 0.5}, {300000, 0.004}, {1000000, 0.25}} {
		tb := newBinomialTables(c.n, c.p)
		if got, want := tb.ExpectedMax(1), tb.Mean(); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("n=%d p=%g: E[max of 1] = %v, want mean %v", c.n, c.p, got, want)
		}
	}
}

func TestTablesDegenerate(t *testing.T) {
	for _, tb := range []*BinomialTables{
		newBinomialTables(0, 0.3),
		newBinomialTables(9, 0),
	} {
		if tb.PMF(0) != 1 || tb.CDF(0) != 1 || tb.ExpectedMax(5) != 0 {
			t.Errorf("degenerate tables wrong: %+v", tb)
		}
	}
	tb := newBinomialTables(9, 1)
	if tb.PMF(9) != 1 || tb.CDF(8) != 0 || tb.ExpectedMax(5) != 9 {
		t.Errorf("P=1 tables wrong: %+v", tb)
	}
}

func TestTablesCDFOutsideWindow(t *testing.T) {
	tb := newBinomialTables(1000000, 0.5)
	if tb.CDF(tb.Lo-1) != 0 || tb.CDF(0) != 0 {
		t.Error("CDF below the window must be 0")
	}
	if tb.CDF(tb.Hi+1) != 1 || tb.CDF(1000000) != 1 {
		t.Error("CDF above the window must be 1")
	}
	if tb.PMF(tb.Lo-1) != 0 || tb.PMF(tb.Hi+1) != 0 {
		t.Error("PMF outside the window must be 0")
	}
}

func TestTablesMaxPMFWindowMatchesDense(t *testing.T) {
	b := Binomial{N: 80, P: 0.07}
	tb := Tables(b.N, b.P)
	for _, w := range []int{1, 3, 12} {
		dense := b.MaxPMFTable(w)
		win := tb.MaxPMFWindow(w)
		var sum float64
		for i, v := range win {
			if math.Abs(v-dense[tb.Lo+i]) > 1e-12 {
				t.Errorf("w=%d k=%d: window %v vs dense %v", w, tb.Lo+i, v, dense[tb.Lo+i])
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("w=%d: Max window sums to %v", w, sum)
		}
	}
}

func TestTablesMemoized(t *testing.T) {
	a := Tables(777, 0.123)
	hits0, _ := TablesCacheStats()
	b := Tables(777, 0.123)
	hits1, _ := TablesCacheStats()
	if a != b {
		t.Error("same (N, P) must return the same shared table")
	}
	if hits1 != hits0+1 {
		t.Errorf("expected one cache hit, stats went %d -> %d", hits0, hits1)
	}
	if c := Tables(777, 0.1234); c == a {
		t.Error("different P must not share a table")
	}
}

func TestTablesCacheBounded(t *testing.T) {
	for i := 0; i < 3*tableCacheCap; i++ {
		Tables(100+i, 0.37)
	}
	if n := tablesCacheEntries(); n > tableCacheCap {
		t.Errorf("cache grew to %d entries, cap is %d", n, tableCacheCap)
	}
}

// tableResident reports whether (n, p) is in the memo, without touching
// its recency or counters.
func tableResident(n int, p float64) bool {
	key := tableKey{n: n, p: p}
	s := tableShards[key.hash()&(tableShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// freshKeys makes every call of unseenP distinct within the process.
var freshKeys atomic.Int64

// unseenP returns a probability near base that no earlier lookup in this
// process used, so a test can sight a key for the first time however often
// it runs.
func unseenP(base float64) float64 {
	return base * (1 + 1e-9*float64(freshKeys.Add(1)))
}

// TestTablesDoorkeeper: the scoped lookup answers a key's first sighting
// from a pooled scratch table and leaves the memo as it was; the second
// sighting makes the key resident. Both sightings count as misses.
func TestTablesDoorkeeper(t *testing.T) {
	n, p := 4321, unseenP(0.0173)
	entries := tablesCacheEntries()
	h0, m0 := TablesCacheStats()
	ref := newBinomialTables(n, p)

	first := borrowTables(n, p)
	if !first.scratch || tableResident(n, p) || tablesCacheEntries() != entries {
		t.Fatalf("first sighting: scratch=%v resident=%v entries %d -> %d", first.scratch, tableResident(n, p), entries, tablesCacheEntries())
	}
	if got, want := first.ExpectedMax(60), ref.ExpectedMax(60); got != want {
		t.Errorf("scratch table ExpectedMax %v, fresh table %v", got, want)
	}
	first.release()

	second := borrowTables(n, p)
	if second.scratch || !tableResident(n, p) {
		t.Fatalf("second sighting: scratch=%v resident=%v", second.scratch, tableResident(n, p))
	}
	second.release() // a resident table stays put
	if third := borrowTables(n, p); third != second {
		t.Error("third sighting should share the resident table")
	}
	if h1, m1 := TablesCacheStats(); h1-h0 != 1 || m1-m0 != 2 {
		t.Errorf("stats moved by %d hits, %d misses; want 1 hit, 2 misses", h1-h0, m1-m0)
	}
}

// TestTablesDoorkeeperMixesN: keys that share p — the W-points of a sweep
// at one utilization — each need their own second sighting. A fingerprint
// that ignored n would let one admit the rest on their first sighting.
func TestTablesDoorkeeperMixesN(t *testing.T) {
	p := unseenP(0.0311)
	for n := 3000; n < 3000+tableSeenSlots; n++ {
		borrowTables(n, p).release()
		if tableResident(n, p) {
			t.Fatalf("(%d, %v) resident after one sighting", n, p)
		}
	}
	for n := 3000; n < 3000+tableSeenSlots; n += 7 {
		borrowTables(n, p).release()
		if !tableResident(n, p) {
			t.Fatalf("(%d, %v) not resident after two sightings", n, p)
		}
	}
}

// TestTablesScratchReuse: a scratch table refilled for a smaller key is
// exact, with no stale entries from the larger one it held before.
func TestTablesScratchReuse(t *testing.T) {
	tb := &BinomialTables{scratch: true}
	tb.build(5000, 0.3)
	tb.build(40, 0.05)
	ref := newBinomialTables(40, 0.05)
	if tb.Lo != ref.Lo || tb.Hi != ref.Hi || len(tb.pmf) != len(ref.pmf) {
		t.Fatalf("window [%d, %d] len %d, want [%d, %d] len %d", tb.Lo, tb.Hi, len(tb.pmf), ref.Lo, ref.Hi, len(ref.pmf))
	}
	for i := range ref.pmf {
		if tb.pmf[i] != ref.pmf[i] || tb.cdf[i] != ref.cdf[i] || tb.tail[i] != ref.tail[i] {
			t.Fatalf("entry %d differs after reuse", i)
		}
	}
	if tb.ExpectedMax(8) != ref.ExpectedMax(8) {
		t.Error("ExpectedMax differs after reuse")
	}
}

func TestTablesDoorkeeperBounded(t *testing.T) {
	for i := 0; i < 3*tableCacheCap; i++ {
		for range 2 {
			borrowTables(100+i, 0.43).release()
		}
	}
	if n := tablesCacheEntries(); n > tableCacheCap {
		t.Errorf("cache grew to %d entries, cap is %d", n, tableCacheCap)
	}
}

// TestTablesConcurrentFirstSightings: goroutines sighting the same fresh
// keys at once share the doorkeeper ring and the scratch pool; under -race
// every borrowed table must be exact and private until released.
func TestTablesConcurrentFirstSightings(t *testing.T) {
	const workers = 8
	p := unseenP(0.021)
	want := make(map[int]float64)
	for n := 7000; n < 7050; n++ {
		want[n] = newBinomialTables(n, p).ExpectedMax(16)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n := 7000 + i%25 + w%2*25
				tb := borrowTables(n, p)
				got := tb.ExpectedMax(16)
				if tb.N != n || tb.CDF(tb.Hi) < 0.999999 {
					t.Errorf("borrowed table (%d, %v) for key %d", tb.N, tb.P, n)
				}
				tb.release()
				if want := want[n]; got != want {
					t.Errorf("key %d: borrowed ExpectedMax %v, resident %v", n, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := tablesCacheEntries(); n > tableCacheCap {
		t.Errorf("cache grew to %d entries under concurrency, cap is %d", n, tableCacheCap)
	}
}

// TestTablesHotKeySurvivesEviction is the regression test for the old
// eviction sweep, which deleted half the memo in random map-iteration order
// and could drop the hottest (N, P) mid-sweep. With recency-aware eviction a
// table that is touched between insertions must stay resident through any
// number of eviction cycles on its shard.
func TestTablesHotKeySurvivesEviction(t *testing.T) {
	hot := Tables(613, 0.29)
	// Push far more distinct keys through the memo than it can hold, enough
	// to overflow every shard several times, re-touching the hot key between
	// insertions the way a sweep worker would.
	for i := 0; i < 8*tableCacheCap; i++ {
		Tables(1000+i, 0.41)
		if got := Tables(613, 0.29); got != hot {
			t.Fatalf("hot table evicted and rebuilt after %d insertions", i+1)
		}
	}
}

// TestTablesConcurrentBuildEvict hammers the memo from many goroutines with
// overlapping hot keys and a churning stream of cold keys — the shard locks,
// recency lists and racing double-builds must stay consistent under -race,
// and every caller of one key must observe a usable table.
func TestTablesConcurrentBuildEvict(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Cold churn unique to this worker forces evictions...
				cold := Tables(2000+w*1000+i, 0.33)
				// ...while a small hot set is shared by all workers.
				hot := Tables(500+i%4, 0.27)
				for _, tb := range []*BinomialTables{cold, hot} {
					if tb.CDF(tb.Hi) < 0.999999 {
						t.Errorf("table (%d, %v) unusable: CDF(Hi)=%v", tb.N, tb.P, tb.CDF(tb.Hi))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := tablesCacheEntries(); n > tableCacheCap {
		t.Errorf("cache grew to %d entries under concurrency, cap is %d", n, tableCacheCap)
	}
}

// ---- Golden: Analyze old-vs-new parity on the paper's figure grids ----

func TestAnalyzeParityOnFigureGrids(t *testing.T) {
	var utils = []float64{0.01, 0.05, 0.1, 0.2}
	check := func(p Params) {
		t.Helper()
		refTask, refJob := refAnalyze(p)
		r := MustAnalyze(p.Fleet())
		if math.Abs(r.ETask-refTask) > 1e-9*refTask {
			t.Errorf("J=%g W=%d P=%g: E_t %v vs reference %v", p.J, p.W, p.P, r.ETask, refTask)
		}
		if math.Abs(r.EJob-refJob) > 1e-9*refJob {
			t.Errorf("J=%g W=%d P=%g: E_j %v vs reference %v", p.J, p.W, p.P, r.EJob, refJob)
		}
	}
	// Figures 1-4: J=1000; Figures 5-6: J=10000; W swept to 100.
	for _, j := range []float64{1000, 10000} {
		for _, util := range utils {
			for w := 4; w <= 100; w += 4 {
				p, err := ParamsFromUtilization(j, w, 10, util)
				if err != nil {
					t.Fatal(err)
				}
				check(p)
			}
		}
	}
	// Figure 9: the scaled problem, T=100 held fixed.
	for _, util := range utils {
		for _, w := range []int{1, 2, 4, 8, 16, 32, 64, 100} {
			p, err := ParamsFromUtilization(100*float64(w), w, 10, util)
			if err != nil {
				t.Fatal(err)
			}
			check(p)
		}
	}
}

func TestAnalyzeParityLargeT(t *testing.T) {
	// The scaled-problem regime the truncation targets: T up to 10^6. At
	// this magnitude the *reference* is the limiting side — its per-entry
	// Lgamma rounding and cdf-tail floor cost it up to ~1e-6 relative
	// (verified against 200-bit arithmetic in the big-float test above) —
	// so old-vs-new parity is asserted at 5e-6, and the new kernel is
	// additionally pinned to the big-float truth at full precision.
	for _, c := range []struct {
		j float64
		w int
	}{{1e7, 100}, {1e7, 10}, {1e8, 100}} {
		p, err := ParamsFromUtilization(c.j, c.w, 10, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		refTask, refJob := refAnalyze(p)
		r := MustAnalyze(p.Fleet())
		if math.Abs(r.ETask-refTask) > 1e-9*refTask {
			t.Errorf("J=%g W=%d: E_t %v vs reference %v", c.j, c.w, r.ETask, refTask)
		}
		if math.Abs(r.EJob-refJob) > 5e-6*refJob {
			t.Errorf("J=%g W=%d: E_j %v vs reference %v", c.j, c.w, r.EJob, refJob)
		}
		n := int(math.Round(p.TaskDemand()))
		bigJob := p.TaskDemand() + p.O*bigExpectedMax(n, p.P, p.W)
		if math.Abs(r.EJob-bigJob) > 1e-9*bigJob {
			t.Errorf("J=%g W=%d: E_j %v vs big-float %v", c.j, c.w, r.EJob, bigJob)
		}
	}
}

func TestJobTimeDistributionCompactForLargeT(t *testing.T) {
	// The windowed distributions must not materialize the empty bulk of the
	// support: for T=100000 the table has ~√T-scale entries, not T.
	p, err := ParamsFromUtilization(1e7, 100, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := JobTimeDistribution(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Times) > 20000 {
		t.Errorf("distribution has %d points; truncation should keep it O(√T)", len(d.Times))
	}
	ana := MustAnalyze(p.Fleet())
	if math.Abs(d.Mean()-ana.EJob) > 1e-8*ana.EJob {
		t.Errorf("windowed distribution mean %v vs E_j %v", d.Mean(), ana.EJob)
	}
}
