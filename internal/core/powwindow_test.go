package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestMaxPMFWindowLadderAgreement pins the squaring-ladder fast path
// against the direct per-entry math.Pow evaluation at 1e-12.
func TestMaxPMFWindowLadderAgreement(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
		w int
	}{
		{100, 0.05, 1},
		{100, 0.05, 2},
		{100, 0.05, 7},
		{1000, 0.01, 64},
		{1000, 0.3, 100},
		{100000, 0.01, 1000},
		{5, 0.9, 3},
	} {
		tb := Tables(tc.n, tc.p)
		got := tb.MaxPMFWindow(tc.w)
		fw := float64(tc.w)
		prev := 0.0
		for i, s := range tb.cdf {
			c := math.Pow(s, fw)
			want := c - prev
			if want < 0 {
				want = 0
			}
			prev = c
			diff := math.Abs(got[i] - want)
			if diff > 1e-12 && diff > 1e-12*math.Abs(want) {
				t.Fatalf("Bin(%d,%v) w=%d index %d: ladder %v vs pow %v (diff %g)",
					tc.n, tc.p, tc.w, i, got[i], want, diff)
			}
		}
		// The window is still a (sub-)pmf: nonnegative, mass ≤ 1.
		var mass float64
		for _, v := range got {
			if v < 0 {
				t.Fatalf("negative max-pmf entry %v", v)
			}
			mass += v
		}
		if mass > 1+1e-9 {
			t.Fatalf("max-pmf mass %v > 1", mass)
		}
	}
}

// TestExpectedMaxMemo: repeated identical (N, P, W) solves hit the per-W
// memo and return the identical value.
func TestExpectedMaxMemo(t *testing.T) {
	tb := Tables(100, 0.05)
	first := tb.ExpectedMax(32)
	tb.emMu.Lock()
	v, ok := tb.emMemo[32]
	tb.emMu.Unlock()
	if !ok || v != first {
		t.Fatalf("ExpectedMax(32) = %v not recorded in memo (got %v, ok=%v)", first, v, ok)
	}
	if again := tb.ExpectedMax(32); again != first {
		t.Fatalf("memoized ExpectedMax differs: %v vs %v", again, first)
	}
	// Distinct W values stay distinct entries.
	if tb.ExpectedMax(64) <= first {
		t.Fatal("ExpectedMax must grow with W")
	}
}

// TestMaxPMFPrefixMatchesWindow: the prefix the distribution reads is the
// full window's head bit for bit, every entry past it is exactly 0, and the
// distribution built from the prefix equals the one built from the window
// bit for bit, over seeded (N, P, W) on both full-support and truncated
// tables.
func TestMaxPMFPrefixMatchesWindow(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 1))
	cut := 0
	for c := 0; c < 300; c++ {
		n := 1 + r.IntN(5000)
		if c%10 == 0 {
			n = tablesFullSupportMax + 1 + r.IntN(200000)
		}
		p := 0.001 + 0.9*r.Float64()
		w := 1 + r.IntN(2000)
		tb := Tables(n, p)
		win := tb.MaxPMFWindow(w)
		pre := tb.maxPMFPrefix(w)
		if len(pre) > len(win) {
			t.Fatalf("Bin(%d,%v) w=%d: prefix %d longer than window %d", n, p, w, len(pre), len(win))
		}
		if len(pre) < len(win) {
			cut++
		}
		for i, v := range win {
			want := 0.0
			if i < len(pre) {
				want = pre[i]
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("Bin(%d,%v) w=%d index %d: window %v, prefix %v", n, p, w, i, v, want)
			}
		}
		o := 1 + 20*r.Float64()
		got := burstCountToTimes(float64(n), o, tb.Lo, pre)
		ref := burstCountToTimes(float64(n), o, tb.Lo, win)
		if !slices.Equal(bitsOf(got.Times), bitsOf(ref.Times)) || !slices.Equal(bitsOf(got.Probs), bitsOf(ref.Probs)) {
			t.Fatalf("Bin(%d,%v) w=%d: distribution from the prefix differs from the window's", n, p, w)
		}
	}
	if cut == 0 {
		t.Error("no case cut the window short; the comparison above checked nothing")
	}
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}
