package solve

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestRouteHashDeterministic: the routing hash is a pure function of the
// cache identity — equal queries hash equal, and the analytic dedup rules
// carry over (siblings differing only outside the dedup key share a home).
func TestRouteHashDeterministic(t *testing.T) {
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 1}
	h1, ok1 := RouteHash("exact", q)
	h2, ok2 := RouteHash("exact", q)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatalf("equal queries must hash equal: %v/%v %v/%v", h1, ok1, h2, ok2)
	}
	// A stochastic backend keys on the full envelope: a different seed is a
	// different identity (and, fnv collisions aside, a different hash).
	q2 := q
	q2.Seed = 2
	if h3, ok := RouteHash("exact", q2); !ok || h3 == h1 {
		t.Errorf("distinct seed should change the stochastic routing hash (got %v ok=%v)", h3, ok)
	}
	// Backend is part of the identity.
	if h4, ok := RouteHash("des", q); !ok || h4 == h1 {
		t.Errorf("distinct backend should change the routing hash (got %v ok=%v)", h4, ok)
	}
	// Analytic siblings differing only in name/seed/owner CV² share a key —
	// and therefore a home node.
	base := ReportQuery{Scenario: Scenario{Name: "a", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 1}}
	sib := ReportQuery{Scenario: Scenario{Name: "b", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 9, OwnerCV2: 16}}
	hb, okb := RouteHash(BackendAnalytic, base)
	hs, oks := RouteHash(BackendAnalytic, sib)
	if !okb || !oks || hb != hs {
		t.Errorf("analytic siblings must share a routing hash: %v/%v vs %v/%v", hb, okb, hs, oks)
	}
}

// TestRouteHashFoldsSchedule: the owner schedule is part of a timeline
// query's routing identity — two workdays differing only in a phase's
// utilization live on different home nodes, while analytic name/seed
// siblings of the same workday share one.
func TestRouteHashFoldsSchedule(t *testing.T) {
	workday := func(nightUtil float64) TimelineQuery {
		return TimelineQuery{Scenario: Scenario{
			Name: "a", J: 400, W: 4, O: 10, Seed: 1,
			Schedule: []PhaseSpec{
				{Name: "day", Duration: 600, Util: 0.1},
				{Name: "night", Duration: 600, Util: nightUtil},
			},
		}}
	}
	h1, ok1 := RouteHash(BackendAnalytic, workday(0.01))
	h2, ok2 := RouteHash(BackendAnalytic, workday(0.02))
	if !ok1 || !ok2 {
		t.Fatal("timeline queries must be routable")
	}
	if h1 == h2 {
		t.Error("a different schedule must change the routing hash")
	}
	sib := workday(0.01)
	sib.Scenario.Name, sib.Scenario.Seed = "b", 99
	if hs, ok := RouteHash(BackendAnalytic, sib); !ok || hs != h1 {
		t.Errorf("analytic timeline siblings must share a routing hash: %v/%v vs %v", hs, ok, h1)
	}
	// Epoch layout is identity too: the answer is the epoch series.
	more := workday(0.01)
	more.Epochs = 24
	if hm, ok := RouteHash(BackendAnalytic, more); !ok || hm == h1 {
		t.Error("a different epoch layout must change the routing hash")
	}
}

// TestParseAnswerRoundtrip: ParseAnswer inverts the wire encoding for every
// answer kind, so a forwarded answer can be adopted as a typed cache entry.
func TestParseAnswerRoundtrip(t *testing.T) {
	answers := map[string]Answer{
		KindReport:       ReportAnswer{Report: Report{Backend: "analytic", W: 10, U: 0.1, EJob: 123.4}},
		KindThreshold:    ThresholdAnswer{Backend: "analytic", MinRatio: 7, AchievedWeff: 0.83},
		KindPartition:    PartitionAnswer{Backend: "analytic", W: 4, Report: Report{EJob: 9}},
		KindDistribution: DistributionAnswer{Backend: "exact", Quantiles: []QuantileValue{{Q: 0.5, Time: 1}}},
		KindScaled:       ScaledAnswer{Backend: "analytic"},
		KindTimeline: TimelineAnswer{Backend: "analytic", CycleLength: 1200, MeanUtil: 0.055,
			Epochs: []TimelineEpoch{{Start: 0, Phase: "day", Util: 0.1, EJob: 123.4}}},
	}
	for kind, a := range answers {
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, err := ParseAnswer(kind, data)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s roundtrip: got %+v want %+v", kind, got, a)
		}
		if got.Kind() != kind {
			t.Errorf("%s roundtrip: kind %q", kind, got.Kind())
		}
	}
	if _, err := ParseAnswer("bogus", []byte(`{}`)); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := ParseAnswer(KindReport, []byte(`{`)); err == nil {
		t.Error("malformed body must fail")
	}
	// Only an object is an answer: a null would decode into a zero answer
	// without error.
	for _, kind := range QueryKinds() {
		for _, body := range []string{`null`, ` null`, `[]`, `"report"`, `7`, ``} {
			if a, err := ParseAnswer(kind, []byte(body)); err == nil {
				t.Errorf("%s %q: accepted as %+v", kind, body, a)
			}
		}
	}
}

// TestPeekDoesNotCountMisses: Peek is the cluster's routing probe — a miss
// must leave the stats untouched so cache misses keep meaning "local backend
// executions", the number /v1/cluster sums fleet-wide.
func TestPeekDoesNotCountMisses(t *testing.T) {
	ctx := context.Background()
	inner := &countingSolver{name: "fake"}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 1}

	if _, _, ok := cs.Peek(q); ok {
		t.Fatal("cold Peek must miss")
	}
	if st := cs.Cache().Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a Peek miss must count nothing, got %+v", st)
	}
	if _, _, err := cs.AnswerCached(ctx, q); err != nil {
		t.Fatal(err)
	}
	a, enc, ok := cs.Peek(q)
	if !ok {
		t.Fatal("Peek after solve must hit")
	}
	if a.(ThresholdAnswer).MinRatio != 7 {
		t.Errorf("Peek answer %+v", a)
	}
	// A stochastic-key entry carries its canonical encoding.
	if enc == nil {
		t.Error("stochastic-key Peek hit should carry encoded bytes")
	}
	var decoded ThresholdAnswer
	if err := json.Unmarshal(enc, &decoded); err != nil || decoded.MinRatio != 7 {
		t.Errorf("cached bytes decode to %+v (err %v)", decoded, err)
	}
	st := cs.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats after solve+peek-hit: %+v, want 1 hit / 1 miss", st)
	}
}

// TestStoreReplica: an adopted answer serves later lookups without an inner
// execution, and the stored encoding is this cache's canonical scrubbed one,
// not whatever the peer sent.
func TestStoreReplica(t *testing.T) {
	ctx := context.Background()
	inner := &countingSolver{name: "fake"}
	cs := NewCachedSolver(inner, nil)
	q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: 3}

	cs.StoreReplica(q, ThresholdAnswer{Backend: "fake", MinRatio: 42})
	a, cached, err := cs.AnswerCached(ctx, q)
	if err != nil || !cached {
		t.Fatalf("replica must hit: cached=%v err=%v", cached, err)
	}
	if a.(ThresholdAnswer).MinRatio != 42 {
		t.Errorf("replica answer %+v", a)
	}
	if inner.calls.Load() != 0 {
		t.Errorf("replica hit must not execute the backend (%d calls)", inner.calls.Load())
	}
	if _, enc, ok := cs.Peek(q); !ok || enc == nil {
		t.Error("replica entry should carry encoded bytes for a stochastic key")
	}
}

// TestEncodedHitScrubsElapsed: the cached encoding is the scrubbed answer —
// a replayed hit must not leak the original solve's elapsed stamp (the PR 5
// bugfix, preserved on the new byte-replay path).
func TestEncodedHitScrubsElapsed(t *testing.T) {
	ctx := context.Background()
	cs := NewCachedSolver(ExactSim{}, nil)
	q := ReportQuery{Scenario: Scenario{J: 100, W: 4, O: 10, Util: 0.1, Seed: 1}}
	if _, _, err := cs.AnswerCached(ctx, q); err != nil {
		t.Fatal(err)
	}
	a, enc, cached, err := cs.AnswerCachedEncoded(ctx, q)
	if err != nil || !cached {
		t.Fatalf("second solve should hit: cached=%v err=%v", cached, err)
	}
	if enc == nil {
		t.Fatal("stochastic hit should return encoded bytes")
	}
	if bytes.Contains(enc, []byte("elapsed_ns")) {
		t.Errorf("cached bytes leak the original elapsed stamp: %s", enc)
	}
	if a.(ReportAnswer).Report.Elapsed != 0 {
		t.Errorf("typed hit leaks elapsed %v", a.(ReportAnswer).Report.Elapsed)
	}
	// The bytes and the typed answer are the same wire object.
	want, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("cached bytes diverge from typed answer:\n  enc  %s\n  want %s", enc, want)
	}
}

// TestPerShardStats: the per-shard breakdown must sum to the aggregate.
func TestPerShardStats(t *testing.T) {
	ctx := context.Background()
	cs := NewCachedSolver(&countingSolver{name: "fake"}, NewAnswerCacheShards(64, 8))
	for i := 0; i < 16; i++ {
		q := ThresholdQuery{W: 10, O: 10, Util: 0.1, TargetEff: 0.8, Seed: uint64(i + 1)}
		if _, _, err := cs.AnswerCached(ctx, q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cs.AnswerCached(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	st := cs.Cache().Stats()
	if len(st.PerShard) != st.Shards {
		t.Fatalf("%d per-shard entries for %d shards", len(st.PerShard), st.Shards)
	}
	var hits, misses, entries, capacity int64
	for _, sh := range st.PerShard {
		hits += sh.Hits
		misses += sh.Misses
		entries += int64(sh.Entries)
		capacity += int64(sh.Capacity)
	}
	if hits != st.Hits || misses != st.Misses || entries != int64(st.Entries) || capacity != int64(st.Capacity) {
		t.Errorf("per-shard sums (h=%d m=%d e=%d c=%d) diverge from aggregate %+v",
			hits, misses, entries, capacity, st)
	}
	if st.Hits != 16 || st.Misses != 16 {
		t.Errorf("want 16 hits / 16 misses, got %+v", st)
	}
}
