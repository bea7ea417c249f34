package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"feasim/internal/core"
	"feasim/internal/rng"
)

// inversionGap is the plain inversion the exact sampler reproduces: the
// geometric gap max(1, ⌈log1p(−u)/log1p(−P)⌉), compared with the trials
// left in float64.
func inversionGap(u, p float64, left int) (k int, over bool) {
	g := math.Ceil(math.Log1p(-u) / math.Log1p(-p))
	if g < 1 {
		g = 1
	}
	if g > float64(left) {
		return 0, true
	}
	return int(g), false
}

// checkGap compares one draw's step against the plain inversion.
func checkGap(t *testing.T, x *Exact, u float64, left int) {
	t.Helper()
	k, over := x.gap(u, left)
	wk, wover := inversionGap(u, x.p.P, left)
	if k != wk || over != wover {
		t.Fatalf("P=%g left=%d u=%#x: gap (%d, %v), inversion (%d, %v)",
			x.p.P, left, math.Float64bits(u), k, over, wk, wover)
	}
}

// TestExactGapMatchesInversion checks the table-assisted step against the
// plain inversion: over seeded draws at every trial count left, and over
// draws a few ulps either side of each table boundary gapCDF[m] ± gapGuard
// and of gapCDF[m] itself, where the shortcut and the formula meet.
func TestExactGapMatchesInversion(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.3, 0.999} {
		for _, trials := range []int{1, 7, 100, 2048, 5000} {
			x, err := NewExact(core.Params{J: float64(trials), W: 1, O: 1, P: p}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(trials, gapCDFMax) + 1; len(x.gapCDF) != want {
				t.Fatalf("P=%g T=%d: %d table entries, want %d", p, trials, len(x.gapCDF), want)
			}
			s := rng.NewStream(uint64(trials))
			for left := 0; left <= trials; left += 1 + left/64 {
				for range 64 {
					checkGap(t, x, s.Float64(), left)
				}
			}
			for m, c := range x.gapCDF {
				for _, edge := range []float64{c - gapGuard, c, c + gapGuard} {
					u := edge
					for range 4 {
						u = math.Nextafter(u, 0)
					}
					for range 9 {
						if u >= 0 && u < 1 {
							checkGap(t, x, u, m)
						}
						u = math.Nextafter(u, 1)
					}
				}
			}
		}
	}
}

// FuzzExactGap checks the table-assisted step against the plain inversion
// for arbitrary P, task demand, trials left and draw.
func FuzzExactGap(f *testing.F) {
	f.Add(0.01, uint16(100), uint16(37), 0.5)
	f.Add(1e-12, uint16(3000), uint16(3000), 0.999999)
	f.Add(0.999, uint16(5), uint16(0), 1e-9)
	f.Add(0.5, uint16(65535), uint16(65535), 0.5)
	f.Fuzz(func(t *testing.T, p float64, trials, left uint16, u float64) {
		if !(p > 0 && p < 1) || !(u >= 0 && u < 1) || trials == 0 {
			t.Skip()
		}
		x, err := NewExact(core.Params{J: float64(trials), W: 1, O: 1, P: p}, 1)
		if err != nil {
			t.Skip()
		}
		checkGap(t, x, u, int(left)%(int(trials)+1))
	})
}

// TestExactTinyUtil pins two owners so rare that a geometric gap exceeds
// 2^63 trials: no task is ever interrupted, so E[job] is exactly T, and
// the run stays bounded by the task's trials however small P is.
func TestExactTinyUtil(t *testing.T) {
	pr := Protocol{Batches: 5, BatchSize: 100, Level: 0.90}
	rare, err := NewExact(mustParams(t, 200, 4, 5, 1e-18), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExactCtx(context.Background(), rare, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobTime.Mean != 50 || res.MeanTask.Mean != 50 {
		t.Errorf("util 1e-18: E[job] %v, E[task] %v, want 50 and 50", res.JobTime.Mean, res.MeanTask.Mean)
	}
	rarest, err := NewExact(mustParams(t, 200, 4, 5, 1e-300), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A sampler that wraps never returns, so this deadline stands in for
	// the test binary's -timeout and fails in seconds instead of minutes.
	deadline := time.AfterFunc(5*time.Second, func() {
		panic("TestExactTinyUtil: util 1e-300 gave no answer within 5s")
	})
	res, err = RunExactCtx(context.Background(), rarest, pr)
	deadline.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobTime.Mean != 50 {
		t.Errorf("util 1e-300: E[job] %v, want 50", res.JobTime.Mean)
	}
}

// TestExactHonorsDeadline runs a scenario whose every sample is 2·10^7
// trials long under a 100 ms deadline: the sampler checks the context
// before each sample, so the run returns context.DeadlineExceeded within
// one sample of the deadline instead of finishing a batch of 1000. The
// bound is 2 s, or three samples past the deadline where one sample takes
// longer than that allows (the race detector slows sampling about fivefold).
func TestExactHonorsDeadline(t *testing.T) {
	p := mustParams(t, 20_000_000, 1, 1, 0.3)
	x, err := NewExact(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewExact(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	twin.Sample()
	limit := max(2*time.Second, 100*time.Millisecond+3*time.Since(start))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// A run that checks only between batches takes minutes here; this
	// deadline stands in for the test binary's -timeout.
	watchdog := time.AfterFunc(limit+10*time.Second, func() {
		panic("TestExactHonorsDeadline: no return within 10s past its bound")
	})
	start = time.Now()
	_, err = RunExactCtx(ctx, x, DefaultProtocol())
	elapsed := time.Since(start)
	watchdog.Stop()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > limit {
		t.Errorf("run returned %v after a 100ms deadline, want within %v", elapsed, limit)
	}
}
