package solve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"feasim/internal/sim"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8} {
			counts := make([]atomic.Int32, n)
			ForEach(context.Background(), n, workers, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForEachInlineInOrder: one worker is the caller, claiming 0..n-1 in
// order. The unsynchronized append would trip -race on any other goroutine.
func TestForEachInlineInOrder(t *testing.T) {
	var got []int
	ForEach(context.Background(), 100, 1, func(i int) { got = append(got, i) })
	if len(got) != 100 {
		t.Fatalf("ran %d calls, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("call %d ran index %d", i, v)
		}
	}
}

// TestForEachCancelStopsClaiming cancels mid-run: each worker may start at
// most the one call it had claimed before seeing ctx done, and ForEach must
// not return while any started call is still running.
func TestForEachCancelStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled atomic.Bool
		var after, running atomic.Int32
		ForEach(ctx, 100000, workers, func(i int) {
			if cancelled.Load() {
				after.Add(1)
			}
			running.Add(1)
			defer running.Add(-1)
			if i == 50 {
				cancel()
				cancelled.Store(true)
			}
			time.Sleep(50 * time.Microsecond)
		})
		if n := running.Load(); n != 0 {
			t.Errorf("workers=%d: ForEach returned with %d calls still running", workers, n)
		}
		if n := after.Load(); n > int32(workers) {
			t.Errorf("workers=%d: %d calls started after cancellation, want <= %d", workers, n, workers)
		}
		cancel()
	}
}

// sweepOutcome is what a grid result is compared on across worker counts:
// everything but the measured solve time.
type sweepOutcome struct {
	Index  int
	Answer string
	Error  string
	Cached bool
}

func sweepOutcomes(t *testing.T, spec QuerySweepSpec) []sweepOutcome {
	t.Helper()
	res, err := CollectQueries(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]sweepOutcome, len(res))
	for i, r := range res {
		ans, err := json.Marshal(zeroElapsed(r.Answer)) // a solve's duration varies

		if err != nil {
			t.Fatal(err)
		}
		out[i] = sweepOutcome{Index: r.Point.Index, Answer: string(ans), Error: r.Error, Cached: r.Cached}
	}
	return out
}

// TestSweepMixedGridSameAtAnyWorkers runs a spread grid whose spread-3
// column is outside the model's domain, crossed with an OwnerCV2 axis the
// analytic key ignores: results, errors and cached flags must not depend on
// the pool size.
func TestSweepMixedGridSameAtAnyWorkers(t *testing.T) {
	spec := QuerySweepSpec{
		Base: spreadBase(), Spread: []float64{0, 1, 3}, TaskRatio: []float64{2, 8},
		OwnerCV2: []float64{1, 4}, Seed: 9,
	}
	spec.Workers = 1
	serial := sweepOutcomes(t, spec)
	domain, cached := 0, 0
	for _, o := range serial {
		if o.Error != "" {
			domain++
		}
		if o.Cached {
			cached++
		}
	}
	if len(serial) != 12 || domain != 4 || cached != 4 {
		t.Fatalf("serial grid: %d points, %d domain errors, %d cached; want 12, 4, 4", len(serial), domain, cached)
	}
	spec.Workers = 4
	for run := 0; run < 10; run++ {
		if got := sweepOutcomes(t, spec); !reflect.DeepEqual(got, serial) {
			t.Fatalf("run %d at 4 workers differs from 1 worker:\n got %+v\nwant %+v", run, got, serial)
		}
	}
}

// TestSweepDedupDeterministic: 36 points over 12 distinct analytic keys
// (OwnerCV2 does not enter the discrete model). The lowest index of each key
// is solved and the other 24 copy it, whatever the pool size or timing.
func TestSweepDedupDeterministic(t *testing.T) {
	spec := QuerySweepSpec{
		Base:     ReportQuery{Scenario: Scenario{J: 3200, O: 10, TargetEff: 0.8}},
		W:        []int{4, 8, 16, 32},
		Util:     []float64{0.05, 0.1, 0.2},
		OwnerCV2: []float64{1, 4, 16},
		Seed:     3,
		Workers:  1,
	}
	want := sweepOutcomes(t, spec)
	for i, o := range want {
		if o.Error != "" {
			t.Fatalf("point %d: %s", i, o.Error)
		}
		if o.Cached != (i%3 != 0) {
			t.Fatalf("point %d cached=%v; only the first OwnerCV2 of each key should solve", i, o.Cached)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		spec.Workers = workers
		for run := 0; run < 50; run++ {
			if got := sweepOutcomes(t, spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d run %d differs from the serial sweep", workers, run)
			}
		}
	}
}

// TestSweepDedupSharesFailure: a repeat of a point whose solve failed gets
// the same error and is not marked cached.
func TestSweepDedupSharesFailure(t *testing.T) {
	res, err := CollectQueries(context.Background(), QuerySweepSpec{
		Base: ThresholdQuery{O: 10, TargetEff: 0.99, MaxRatio: 2},
		W:    []int{4, 8, 4}, Util: []float64{0.5}, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[2].Err != res[0].Err || res[2].Cached {
		t.Fatalf("repeat of a failed point: err %v (first %v), cached %v; want the same error, not cached",
			res[2].Err, res[0].Err, res[2].Cached)
	}
}

// TestSweepCancelledCollectKeepsCompleted cancels a grid whose analytic
// points finish at once and whose DES points run until cancelled: the
// analytic points come back, in index order, with ctx.Err().
func TestSweepCancelledCollectKeepsCompleted(t *testing.T) {
	// A precision target the DES cannot reach keeps its points busy.
	pr := sim.Protocol{Batches: 20, BatchSize: 1000, Level: 0.90, MaxRel: 0.001, MaxSamples: 1 << 30}
	spec := QuerySweepSpec{
		Base:     ReportQuery{Scenario: Scenario{J: 6000, W: 60, O: 10}},
		Util:     []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
		Backends: []string{BackendAnalytic, BackendDES},
		Workers:  2,
		Protocol: &pr,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := CollectQueries(ctx, spec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if len(res) < 6 || len(res) >= 12 {
		t.Fatalf("got %d results; want the 6 analytic points and not every DES point", len(res))
	}
	for i, r := range res {
		if i > 0 && r.Point.Index <= res[i-1].Point.Index {
			t.Fatalf("results out of index order at %d: %d after %d", i, r.Point.Index, res[i-1].Point.Index)
		}
		if i < 6 && (r.Point.Index != i || r.Err != nil) {
			t.Errorf("analytic point %d: index %d, err %v", i, r.Point.Index, r.Err)
		}
	}
}
