package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewStream(7)
	c0 := root.Split(0)
	c1 := root.Split(1)
	if c0.Seed() == c1.Seed() {
		t.Fatal("sibling splits share a seed")
	}
	// Splitting must not perturb the parent.
	p1 := NewStream(7)
	p1.Split(0)
	p1.Split(1)
	p2 := NewStream(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split consumed parent stream state")
	}
}

func TestSplitReproducible(t *testing.T) {
	a := NewStream(9).Split(3)
	b := NewStream(9).Split(3)
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same split index gave different streams")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntNAndPerm(t *testing.T) {
	s := NewStream(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("IntN(5) should hit all 5 values over 1000 draws, hit %d", len(seen))
	}
	p := s.Perm(10)
	mark := make([]bool, 10)
	for _, v := range p {
		if mark[v] {
			t.Fatalf("Perm produced duplicate %d", v)
		}
		mark[v] = true
	}
}

// sampleMoments draws n variates and returns their sample mean and variance.
func sampleMoments(d Dist, n int, seed uint64) (mean, variance float64) {
	s := NewStream(seed)
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := d.Sample(s)
		sum += x
		sum2 += x * x
	}
	mean = sum / float64(n)
	variance = sum2/float64(n) - mean*mean
	return
}

func checkMoments(t *testing.T, d Dist, n int, relTol float64) {
	t.Helper()
	mean, variance := sampleMoments(d, n, 1234)
	if m := d.Mean(); math.Abs(mean-m) > relTol*math.Max(1, m) {
		t.Errorf("%s: sample mean %.4f vs analytic %.4f", d, mean, m)
	}
	if v := d.Variance(); math.Abs(variance-v) > 3*relTol*math.Max(1, v) {
		t.Errorf("%s: sample variance %.4f vs analytic %.4f", d, variance, v)
	}
}

func TestDistributionMoments(t *testing.T) {
	const n = 200000
	checkMoments(t, Deterministic{V: 10}, 100, 1e-12)
	checkMoments(t, Uniform{Lo: 2, Hi: 8}, n, 0.02)
	checkMoments(t, Exponential{M: 10}, n, 0.02)
	checkMoments(t, Erlang{K: 4, M: 10}, n, 0.02)
	checkMoments(t, HyperExp{P1: 0.3, M1: 2, M2: 20}, n, 0.03)
	checkMoments(t, Geometric{P: 0.1}, n, 0.02)
	checkMoments(t, Pareto{Xm: 5, A: 3.5}, 4*n, 0.05)
	checkMoments(t, Shifted{D: Exponential{M: 5}, Off: 3}, n, 0.02)
}

func TestGeometricSupport(t *testing.T) {
	d := Geometric{P: 0.25}
	s := NewStream(5)
	for i := 0; i < 10000; i++ {
		x := d.Sample(s)
		if x < 1 {
			t.Fatalf("geometric sample below 1: %v", x)
		}
		if x != math.Trunc(x) {
			t.Fatalf("geometric sample not integral: %v", x)
		}
	}
}

func TestGeometricEdges(t *testing.T) {
	s := NewStream(1)
	if v := (Geometric{P: 1}).Sample(s); v != 1 {
		t.Fatalf("P=1 geometric must always be 1, got %v", v)
	}
	if v := (Geometric{P: 0}).Sample(s); !math.IsInf(v, 1) {
		t.Fatalf("P=0 geometric must be +Inf, got %v", v)
	}
}

func TestNewGeometricDrawsLikeTheLiteral(t *testing.T) {
	// NewGeometric's ln(1-P), taken once, must give every draw the bits a
	// literal Geometric gives it.
	for _, p := range []float64{0, 1e-9, 0.001, 1.0 / 90, 0.25, 0.999, 1} {
		d, lit := NewGeometric(p), Geometric{P: p}
		a, b := NewStream(5), NewStream(5)
		for i := 0; i < 10000; i++ {
			if x, y := d.Sample(a), lit.Sample(b); x != y {
				t.Fatalf("P=%v draw %d: %v, literal %v", p, i, x, y)
			}
		}
		if d.String() != lit.String() || d.Mean() != lit.Mean() {
			t.Errorf("P=%v: %v (mean %v), literal %v (mean %v)", p, d, d.Mean(), lit, lit.Mean())
		}
	}
}

func TestGeometricMeanMatchesThinkTime(t *testing.T) {
	// The paper's owner think time has mean 1/P.
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
		d := Geometric{P: p}
		if got, want := d.Mean(), 1/p; math.Abs(got-want) > 1e-12 {
			t.Errorf("P=%v: mean %v want %v", p, got, want)
		}
	}
}

func TestBalancedHyperExp(t *testing.T) {
	for _, cv2 := range []float64{1.5, 4, 25} {
		d := BalancedHyperExp(10, cv2)
		if math.Abs(d.Mean()-10) > 1e-9 {
			t.Errorf("cv2=%v: mean %v want 10", cv2, d.Mean())
		}
		gotCV2 := d.Variance() / (d.Mean() * d.Mean())
		if math.Abs(gotCV2-cv2) > 1e-9 {
			t.Errorf("cv2=%v: got %v", cv2, gotCV2)
		}
	}
	// cv2 <= 1 degenerates to an exponential-equivalent mixture.
	d := BalancedHyperExp(10, 1)
	if math.Abs(d.Mean()-10) > 1e-9 {
		t.Errorf("cv2=1: mean %v want 10", d.Mean())
	}
}

func TestParetoTail(t *testing.T) {
	d := Pareto{Xm: 1, A: 1.5}
	s := NewStream(3)
	for i := 0; i < 1000; i++ {
		if x := d.Sample(s); x < 1 {
			t.Fatalf("pareto sample below scale: %v", x)
		}
	}
	if !math.IsInf(Pareto{Xm: 1, A: 0.9}.Mean(), 1) {
		t.Error("pareto with shape <= 1 should have infinite mean")
	}
	if !math.IsInf(Pareto{Xm: 1, A: 1.5}.Variance(), 1) {
		t.Error("pareto with shape <= 2 should have infinite variance")
	}
}

func TestCV(t *testing.T) {
	if cv := CV(Exponential{M: 7}); math.Abs(cv-1) > 1e-12 {
		t.Errorf("exponential CV = %v, want 1", cv)
	}
	if cv := CV(Deterministic{V: 7}); cv != 0 {
		t.Errorf("deterministic CV = %v, want 0", cv)
	}
	if cv := CV(Deterministic{V: 0}); cv != 0 {
		t.Errorf("zero-mean CV = %v, want 0", cv)
	}
	if cv := CV(Erlang{K: 4, M: 10}); math.Abs(cv-0.5) > 1e-12 {
		t.Errorf("erlang-4 CV = %v, want 0.5", cv)
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"det:10", "exp:10", "erlang:4,10", "hyper:0.1,55,5",
		"pareto:6,2.5", "geom:0.01", "unif:5,15",
	}
	for _, spec := range specs {
		d, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if d.String() != spec {
			t.Errorf("Parse(%q).String() = %q", spec, d.String())
		}
		// Re-parsing the rendered form must give identical moments.
		d2, err := Parse(d.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", d.String(), err)
		}
		if d2.Mean() != d.Mean() || d2.Variance() != d.Variance() {
			t.Errorf("%q: round-trip changed moments", spec)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "wat:1", "det", "det:", "det:a", "exp:1,2", "erlang:4", "unif:1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestParseConstAlias(t *testing.T) {
	d, err := Parse("const:5")
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 5 {
		t.Fatalf("const:5 mean = %v", d.Mean())
	}
}

func TestQuickGeometricAtLeastOne(t *testing.T) {
	s := NewStream(99)
	f := func(pRaw uint16) bool {
		p := (float64(pRaw) + 1) / (math.MaxUint16 + 2) // p in (0,1)
		return Geometric{P: p}.Sample(s) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickExponentialNonNegative(t *testing.T) {
	s := NewStream(100)
	f := func(mRaw uint16) bool {
		m := float64(mRaw)/1000 + 0.001
		return Exponential{M: m}.Sample(s) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSplitSeedMatchesSplit pins SplitSeed to the first draw of the split
// child stream, and checks that it allocates nothing.
func TestSplitSeedMatchesSplit(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		root := NewStream(seed * 0x2545f4914f6cdd1d)
		for i := uint64(0); i < 128; i++ {
			idx := i * (seed + 1) * 7919
			if got, want := root.SplitSeed(idx), root.Split(idx).Uint64(); got != want {
				t.Fatalf("seed %d index %d: SplitSeed = %#x, Split.Uint64 = %#x", root.Seed(), idx, got, want)
			}
		}
	}
	root := NewStream(42)
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink += root.SplitSeed(sink & 1023) }); allocs != 0 {
		t.Errorf("SplitSeed allocates %v times per call, want 0", allocs)
	}
}
