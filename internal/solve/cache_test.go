package solve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSolver counts Answer executions and can gate them on a channel so
// tests control overlap deterministically.
type countingSolver struct {
	name    string
	calls   atomic.Int64
	release chan struct{} // nil: answer immediately
	err     error
	// ignoreCtx makes a gated solver wait out its release even under a
	// cancelled context, so tests can order "ctx expires, then the solver
	// fails deterministically" without racing the select below.
	ignoreCtx bool
}

func (c *countingSolver) Name() string           { return c.name }
func (c *countingSolver) Capabilities() []string { return QueryKinds() }

func (c *countingSolver) Answer(ctx context.Context, q Query) (Answer, error) {
	c.calls.Add(1)
	if c.release != nil {
		if c.ignoreCtx {
			<-c.release
		} else {
			select {
			case <-c.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return ThresholdAnswer{Backend: c.name, MinRatio: 7}, nil
}

func (c *countingSolver) Solve(ctx context.Context, s Scenario) (Report, error) {
	a, err := c.Answer(ctx, ReportQuery{Scenario: s})
	if err != nil {
		return Report{}, err
	}
	return a.(ReportAnswer).Report, nil
}

// TestCachedSolverHitsAndMisses: repeated identical queries execute once;
// distinct queries execute separately; stats track both.
func TestCachedSolverHitsAndMisses(t *testing.T) {
	ctx := context.Background()
	inner := &countingSolver{name: "fake"}
	cs := NewCachedSolver(inner, nil)

	q1 := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 1}
	q2 := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 2}

	for i := 0; i < 3; i++ {
		a, cached, err := cs.AnswerCached(ctx, q1)
		if err != nil {
			t.Fatal(err)
		}
		if wantCached := i > 0; cached != wantCached {
			t.Errorf("call %d: cached=%v, want %v", i, cached, wantCached)
		}
		if a.(ThresholdAnswer).MinRatio != 7 {
			t.Errorf("call %d: unexpected answer %+v", i, a)
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner executed %d times for one query, want 1", got)
	}
	// A non-analytic backend's key is the full envelope: a different seed is
	// a different answer.
	if _, cached, err := cs.AnswerCached(ctx, q2); err != nil || cached {
		t.Errorf("distinct seed should miss: cached=%v err=%v", cached, err)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("inner executed %d times for two distinct queries, want 2", got)
	}
	st := cs.Cache().Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats %+v, want 2 hits / 2 misses / 2 entries", st)
	}
}

// TestCachedSolverCoalesces: concurrent identical queries execute the inner
// solver exactly once, with the waiters counted as coalesced.
func TestCachedSolverCoalesces(t *testing.T) {
	ctx := context.Background()
	inner := &countingSolver{name: "fake", release: make(chan struct{})}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 5}

	const n = 8
	var wg sync.WaitGroup
	answers := make([]Answer, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], _, errs[i] = cs.AnswerCached(ctx, q)
		}(i)
	}
	// Release once every caller is either leading or waiting on the flight.
	for {
		st := cs.Cache().Stats()
		if st.Misses == 1 && st.Coalesced == n-1 {
			break
		}
		runtime.Gosched()
	}
	close(inner.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Errorf("caller %d got a different answer: %+v vs %+v", i, answers[i], answers[0])
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner executed %d times under %d concurrent identical queries, want 1", got, n)
	}
	st := cs.Cache().Stats()
	if st.Coalesced != n-1 || st.Misses != 1 {
		t.Errorf("stats %+v, want %d coalesced / 1 miss", st, n-1)
	}
}

// TestCachedSolverDoesNotCacheErrors: a failed execution is shared with
// in-flight waiters but must not poison the key.
func TestCachedSolverDoesNotCacheErrors(t *testing.T) {
	ctx := context.Background()
	inner := &countingSolver{name: "fake", err: errors.New("transient")}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 9}

	if _, _, err := cs.AnswerCached(ctx, q); err == nil {
		t.Fatal("want the inner error")
	}
	inner.err = nil
	a, cached, err := cs.AnswerCached(ctx, q)
	if err != nil || cached {
		t.Fatalf("retry after error: cached=%v err=%v", cached, err)
	}
	if a == nil || inner.calls.Load() != 2 {
		t.Errorf("error must not be cached: %d calls", inner.calls.Load())
	}
}

// TestCachedSolverAnalyticRebindsScenario: analytic answers are shared
// across siblings differing only in name/seed/owner CV², but each caller
// must see its own scenario echoed back.
func TestCachedSolverAnalyticRebindsScenario(t *testing.T) {
	ctx := context.Background()
	cs := NewCachedSolver(Analytic{}, nil)
	base := Scenario{Name: "a", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 1}
	sib := Scenario{Name: "b", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 2, OwnerCV2: 16}

	if _, cached, err := cs.AnswerCached(ctx, ReportQuery{Scenario: base}); err != nil || cached {
		t.Fatalf("first solve: cached=%v err=%v", cached, err)
	}
	a, cached, err := cs.AnswerCached(ctx, ReportQuery{Scenario: sib})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("sibling scenario should hit the analytic dedup key")
	}
	if got := a.(ReportAnswer).Report.Scenario; !reflect.DeepEqual(got, sib) {
		t.Errorf("cached answer carries scenario %+v, want the caller's %+v", got, sib)
	}
}

// TestCachedSolverSolveSharesCache: the Solve shorthand and Answer(Report)
// must share one entry.
func TestCachedSolverSolveSharesCache(t *testing.T) {
	ctx := context.Background()
	cs := NewCachedSolver(Analytic{}, nil)
	s := Scenario{J: 1000, W: 10, O: 10, Util: 0.1}
	rep, err := cs.Solve(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	a, cached, err := cs.AnswerCached(ctx, ReportQuery{Scenario: s})
	if err != nil || !cached {
		t.Fatalf("Answer after Solve should hit: cached=%v err=%v", cached, err)
	}
	if got := a.(ReportAnswer).Report.EJob; got != rep.EJob {
		t.Errorf("cached E[job] %v != solved %v", got, rep.EJob)
	}
}

// TestAnswerCacheLRUBound: the cache must hold at most its capacity and
// evict least-recently-used entries first. Pinned to the single-shard layout,
// where the LRU order is global and deterministic.
func TestAnswerCacheLRUBound(t *testing.T) {
	c := NewAnswerCacheShards(2, 1)
	key := func(i int) answerKey {
		return answerKey{backend: "fake", key: cacheKey{kind: KindThreshold, extra: fmt.Sprint(i)}}
	}
	c.store(key(1), ThresholdAnswer{MinRatio: 1}, nil)
	c.store(key(2), ThresholdAnswer{MinRatio: 2}, nil)
	if _, _, ok := c.peek(key(1)); !ok { // touch 1 → 2 becomes LRU
		t.Fatal("entry 1 should be resident")
	}
	c.store(key(3), ThresholdAnswer{MinRatio: 3}, nil) // evicts 2
	if _, _, ok := c.peek(key(2)); ok {
		t.Error("entry 2 should have been evicted")
	}
	for _, i := range []int{1, 3} {
		if _, _, ok := c.peek(key(i)); !ok {
			t.Errorf("entry %d should be resident", i)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 2 entries / capacity 2 / 1 eviction", st)
	}
}

// TestAnswerCacheShardedBound: under a sharded layout, total residency
// never exceeds the configured capacity no matter how keys hash, and the
// capacity reported by Stats is exactly the configured bound. The shard
// count is pinned (the default adapts to GOMAXPROCS and may be 1 on a
// single-CPU host).
func TestAnswerCacheShardedBound(t *testing.T) {
	const capacity = 64
	c := NewAnswerCacheShards(capacity, 8)
	if st := c.Stats(); st.Capacity != capacity {
		t.Fatalf("sharded capacity sums to %d, want %d", st.Capacity, capacity)
	}
	if st := c.Stats(); st.Shards != 8 {
		t.Fatalf("want 8 shards, got %d", st.Shards)
	}
	for i := 0; i < 10*capacity; i++ {
		key := answerKey{backend: "fake", key: cacheKey{kind: KindThreshold, extra: fmt.Sprint(i)}}
		c.store(key, ThresholdAnswer{MinRatio: i}, nil)
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Errorf("%d entries resident, capacity %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Error("overflow insertions must evict")
	}
}

// TestAnswerCacheShardCapacityInvariant: every shard must hold at least one
// entry of capacity no matter how the requested shard count rounds — a
// zero-capacity shard would evict each entry the instant it is stored,
// silently disabling caching for its slice of the key space.
func TestAnswerCacheShardCapacityInvariant(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{5, 5}, {1, 16}, {2, 3}, {7, 8}, {16, 16}, {4096, 0}, {3, 0},
	} {
		c := NewAnswerCacheShards(tc.capacity, tc.shards)
		st := c.Stats()
		if st.Capacity != tc.capacity {
			t.Errorf("cap %d shards %d: capacities sum to %d", tc.capacity, tc.shards, st.Capacity)
		}
		for i, s := range c.shards {
			if s.capacity < 1 {
				t.Errorf("cap %d shards %d: shard %d/%d has capacity %d",
					tc.capacity, tc.shards, i, st.Shards, s.capacity)
			}
		}
		// And a store on any key must stay resident until capacity pressure.
		key := answerKey{backend: "fake", key: cacheKey{kind: KindThreshold, extra: "probe"}}
		c.store(key, ThresholdAnswer{MinRatio: 1}, nil)
		if _, _, ok := c.peek(key); !ok {
			t.Errorf("cap %d shards %d: freshly stored entry not resident", tc.capacity, tc.shards)
		}
	}
}

// TestAnswerCacheShardedSingleFlight: the per-shard in-flight tables must
// still guarantee exactly one execution per distinct key with many keys in
// flight at once across shards.
func TestAnswerCacheShardedSingleFlight(t *testing.T) {
	ctx := context.Background()
	inner := &countingSolver{name: "fake"}
	cs := NewCachedSolver(inner, NewAnswerCacheShards(256, 16))

	const keys = 32
	const callersPerKey = 4
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: uint64(k + 1)}
		for i := 0; i < callersPerKey; i++ {
			wg.Add(1)
			go func(q ThresholdQuery) {
				defer wg.Done()
				if _, _, err := cs.AnswerCached(ctx, q); err != nil {
					t.Error(err)
				}
			}(q)
		}
	}
	wg.Wait()
	if got := inner.calls.Load(); got != keys {
		t.Errorf("inner executed %d times for %d distinct keys, want exactly one each", got, keys)
	}
	st := cs.Cache().Stats()
	if st.Misses != keys || st.Hits+st.Coalesced != keys*(callersPerKey-1) {
		t.Errorf("stats %+v, want %d misses and %d hits+coalesced", st, keys, keys*(callersPerKey-1))
	}
}

// TestCachedSolverFreshElapsedOnHit: a cache hit must not echo the original
// solve's Elapsed in the answer body — a microsecond lookup claiming a long
// solve's duration misreports the service's latency.
func TestCachedSolverFreshElapsedOnHit(t *testing.T) {
	ctx := context.Background()
	cs := NewCachedSolver(Analytic{}, nil)
	q := ReportQuery{Scenario: Scenario{J: 1000, W: 10, O: 10, Util: 0.1}}

	a, cached, err := cs.AnswerCached(ctx, q)
	if err != nil || cached {
		t.Fatalf("first solve: cached=%v err=%v", cached, err)
	}
	if a.(ReportAnswer).Report.Elapsed <= 0 {
		t.Fatal("fresh solve should stamp a positive Elapsed")
	}
	a, cached, err = cs.AnswerCached(ctx, q)
	if err != nil || !cached {
		t.Fatalf("second solve: cached=%v err=%v", cached, err)
	}
	if got := a.(ReportAnswer).Report.Elapsed; got != 0 {
		t.Errorf("cache hit echoes the original solve's Elapsed %v, want 0", got)
	}
}

// TestCachedSolverDomainErrorAfterLeaderCancelIsShared: when the leader's
// context has ended but the execution failed with a *deterministic* domain
// error, waiters must inherit that error instead of re-executing a
// guaranteed failure in a loop (the retry path is only for failures that ARE
// the leader's context error).
func TestCachedSolverDomainErrorAfterLeaderCancelIsShared(t *testing.T) {
	domainErr := errors.New("non-integral task demand")
	inner := &countingSolver{name: "fake", release: make(chan struct{}), ignoreCtx: true, err: domainErr}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 21}

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := cs.AnswerCached(leaderCtx, q)
		leaderDone <- err
	}()
	for cs.Cache().Stats().Misses == 0 {
		runtime.Gosched()
	}
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := cs.AnswerCached(context.Background(), q)
		waiterDone <- err
	}()
	for cs.Cache().Stats().Coalesced == 0 {
		runtime.Gosched()
	}

	// The leader's client hangs up, but the solver fails with the domain
	// error — not the context error (ignoreCtx makes it wait out the release
	// and return inner.err regardless of the cancellation).
	leaderCancel()
	close(inner.release)
	if err := <-leaderDone; !errors.Is(err, domainErr) {
		t.Fatalf("leader: want the domain error, got %v", err)
	}
	if err := <-waiterDone; !errors.Is(err, domainErr) {
		t.Fatalf("waiter must inherit the deterministic failure, got %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner executed %d times; a deterministic failure must not be retried", got)
	}
}

// TestCachedSolverLeaderCancellationDoesNotPoisonWaiters: when the flight
// leader's own context is cancelled mid-solve, a healthy coalesced waiter
// must not inherit that cancellation — it re-enters, leads a fresh
// execution, and gets the answer.
func TestCachedSolverLeaderCancellationDoesNotPoisonWaiters(t *testing.T) {
	inner := &countingSolver{name: "fake", release: make(chan struct{})}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 13}

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := cs.AnswerCached(leaderCtx, q)
		leaderDone <- err
	}()
	for cs.Cache().Stats().Misses == 0 {
		runtime.Gosched()
	}
	waiterDone := make(chan error, 1)
	var waiterAns Answer
	go func() {
		a, _, err := cs.AnswerCached(context.Background(), q)
		waiterAns = a
		waiterDone <- err
	}()
	for cs.Cache().Stats().Coalesced == 0 {
		runtime.Gosched()
	}

	// The leader's client hangs up mid-solve; its execution fails with its
	// context error.
	leaderCancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want context.Canceled, got %v", err)
	}
	// The waiter re-enters and leads a fresh execution; release it.
	for cs.Cache().Stats().Misses < 2 {
		runtime.Gosched()
	}
	close(inner.release)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter must not inherit the leader's cancellation: %v", err)
	}
	if waiterAns == nil || waiterAns.(ThresholdAnswer).MinRatio != 7 {
		t.Errorf("waiter answer %+v", waiterAns)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("inner executed %d times (cancelled leader + re-elected waiter), want 2", got)
	}
}

// TestAnswerCacheContextWhileCoalesced: a waiter whose context expires
// while coalesced returns the context error without disturbing the
// in-flight execution.
func TestAnswerCacheContextWhileCoalesced(t *testing.T) {
	inner := &countingSolver{name: "fake", release: make(chan struct{})}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 11}

	leadDone := make(chan error, 1)
	go func() {
		_, _, err := cs.AnswerCached(context.Background(), q)
		leadDone <- err
	}()
	for cs.Cache().Stats().Misses == 0 {
		runtime.Gosched()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := cs.AnswerCached(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired waiter: want context.DeadlineExceeded, got %v", err)
	}
	close(inner.release)
	if err := <-leadDone; err != nil {
		t.Errorf("leader should complete: %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner executed %d times, want 1", got)
	}
}
