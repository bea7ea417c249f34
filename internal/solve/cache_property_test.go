package solve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// refLRU is the reference model of one shard: a map of answers and a slice
// of keys in recency order, front first.
type refLRU struct {
	capacity int
	ans      map[answerKey]int
	order    []answerKey
}

func (r *refLRU) touch(k answerKey) {
	i := slices.Index(r.order, k)
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, k)
}

// store reports whether it evicted.
func (r *refLRU) store(k answerKey, v int) bool {
	if _, ok := r.ans[k]; ok {
		r.ans[k] = v
		r.touch(k)
		return false
	}
	r.ans[k] = v
	r.order = slices.Insert(r.order, 0, k)
	if len(r.order) <= r.capacity {
		return false
	}
	delete(r.ans, r.order[len(r.order)-1])
	r.order = r.order[:len(r.order)-1]
	return true
}

// TestAnswerCacheMatchesReferenceLRU drives AnswerCache and a reference LRU
// per shard through seeded random store, peek and do sequences, with a hash
// hook that makes most keys collide (and keys differing only in backend
// always collide). After every step the counters, the residency and each
// shard's recency order must match the reference, and every resident entry
// must be reachable through the hash index.
func TestAnswerCacheMatchesReferenceLRU(t *testing.T) {
	errFail := errors.New("backend failed")
	for _, shards := range []int{1, 4} {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				r := rand.New(rand.NewPCG(seed, uint64(shards)))
				capacity := shards * (1 + r.IntN(4))
				c := NewAnswerCacheShards(capacity, shards)
				c.hashKey = func(k answerKey) uint64 {
					i, _ := strconv.Atoi(k.key.extra)
					return uint64(i % 5)
				}
				refs := make([]*refLRU, len(c.shards))
				for i, s := range c.shards {
					refs[i] = &refLRU{capacity: s.capacity, ans: map[answerKey]int{}}
				}
				var hits, misses, evictions int64
				ctx := context.Background()
				for step := 0; step < 400; step++ {
					k := answerKey{backend: []string{"fake", "other"}[r.IntN(2)],
						key: cacheKey{kind: KindThreshold, extra: strconv.Itoa(r.IntN(12))}}
					_, shard := c.shardFor(k)
					ref := refs[slices.Index(c.shards, shard)]
					want, resident := ref.ans[k]
					v := step
					switch op := r.IntN(3); op {
					case 0:
						c.store(k, ThresholdAnswer{MinRatio: v}, nil)
						if ref.store(k, v) {
							evictions++
						}
					case 1:
						a, _, ok := c.peek(k)
						if ok != resident {
							t.Fatalf("step %d: peek %v resident=%v, reference %v", step, k, ok, resident)
						}
						if ok {
							hits++
							ref.touch(k)
							if got := a.(ThresholdAnswer).MinRatio; got != want {
								t.Fatalf("step %d: peek %v = %d, want %d", step, k, got, want)
							}
						}
					case 2:
						fail := r.IntN(4) == 0
						a, _, cached, err := c.do(ctx, k, func() (Answer, error) {
							if fail {
								return nil, errFail
							}
							return ThresholdAnswer{MinRatio: v}, nil
						})
						if cached != resident {
							t.Fatalf("step %d: do %v cached=%v, reference resident %v", step, k, cached, resident)
						}
						switch {
						case resident:
							hits++
							ref.touch(k)
							if got := a.(ThresholdAnswer).MinRatio; got != want {
								t.Fatalf("step %d: do hit %v = %d, want %d", step, k, got, want)
							}
						case fail:
							misses++
							if !errors.Is(err, errFail) {
								t.Fatalf("step %d: do %v err %v, want the backend's", step, k, err)
							}
						default:
							misses++
							if ref.store(k, v) {
								evictions++
							}
						}
					}
					checkAgainstReference(t, step, c, refs, hits, misses, evictions)
				}
			})
		}
	}
}

func checkAgainstReference(t *testing.T, step int, c *AnswerCache, refs []*refLRU, hits, misses, evictions int64) {
	t.Helper()
	st := c.Stats()
	entries := 0
	for _, ref := range refs {
		entries += len(ref.order)
	}
	if st.Hits != hits || st.Misses != misses || st.Evictions != evictions || st.Entries != entries {
		t.Fatalf("step %d: stats %d hits / %d misses / %d evictions / %d entries, reference %d / %d / %d / %d",
			step, st.Hits, st.Misses, st.Evictions, st.Entries, hits, misses, evictions, entries)
	}
	for i, s := range c.shards {
		var order []answerKey
		for e := s.lru.next; e != &s.lru; e = e.next {
			if e.next.prev != e {
				t.Fatalf("step %d: shard %d recency list broken at %v", step, i, e.key)
			}
			if s.find(c.hash(e.key), e.key) != e {
				t.Fatalf("step %d: shard %d entry %v not reachable through the index", step, i, e.key)
			}
			if got := e.ans.(ThresholdAnswer).MinRatio; got != refs[i].ans[e.key] {
				t.Fatalf("step %d: shard %d entry %v holds %d, reference %d", step, i, e.key, got, refs[i].ans[e.key])
			}
			order = append(order, e.key)
		}
		if !slices.Equal(order, refs[i].order) {
			t.Fatalf("step %d: shard %d recency %v, reference %v", step, i, order, refs[i].order)
		}
		chained := 0
		for _, head := range s.index {
			for e := head; e != nil; e = e.chain {
				chained++
			}
		}
		if chained != s.n || s.n != len(order) {
			t.Fatalf("step %d: shard %d indexes %d entries, counts %d, lists %d", step, i, chained, s.n, len(order))
		}
	}
}

// TestAnswerCacheStoresNoScenario: report, distribution and timeline
// entries are stored with a zero Scenario, and every path that reads one
// back — a do hit, Peek, a replica adopted by StoreReplica — echoes the
// caller's own scenario, including a sibling that differs in name and seed.
func TestAnswerCacheStoresNoScenario(t *testing.T) {
	ctx := context.Background()
	base := Scenario{Name: "a", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 1}
	sib := Scenario{Name: "b", J: 1000, W: 10, O: 10, Util: 0.1, Seed: 2}
	day := PhaseSpec{Name: "day", Duration: 480, Util: 0.2}
	night := PhaseSpec{Name: "night", Duration: 960, Util: 0.01}
	phased := phasedScenario(day, night)
	phasedSib := phased
	phasedSib.Name, phasedSib.Seed = "sibling", 777
	for _, tc := range []struct {
		name     string
		q, sib   Query
		scenario func(Answer) Scenario
	}{
		{"report", ReportQuery{Scenario: base}, ReportQuery{Scenario: sib},
			func(a Answer) Scenario { return a.(ReportAnswer).Report.Scenario }},
		{"distribution", DistributionQuery{Scenario: base, Quantiles: []float64{0.5}},
			DistributionQuery{Scenario: sib, Quantiles: []float64{0.5}},
			func(a Answer) Scenario { return a.(DistributionAnswer).Scenario }},
		{"timeline", TimelineQuery{Scenario: phased}, TimelineQuery{Scenario: phasedSib},
			func(a Answer) Scenario { return a.(TimelineAnswer).Scenario }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := NewCachedSolver(Analytic{}, NewAnswerCacheShards(16, 1))
			key, ok := answerCacheKey(BackendAnalytic, tc.q)
			if !ok {
				t.Fatal("query has no cache key")
			}
			stored := func() Scenario {
				t.Helper()
				h, s := cs.cache.shardFor(key)
				e := s.find(h, key)
				if e == nil {
					t.Fatal("entry not resident")
				}
				return tc.scenario(e.ans)
			}
			wantScenario := func(path string, a Answer, q Query) {
				t.Helper()
				want := tc.scenario(rebindAnswer(a, q))
				if got := tc.scenario(a); !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, Scenario{}) {
					t.Errorf("%s: scenario %+v, want the caller's %+v", path, got, want)
				}
			}

			a, err := cs.Answer(ctx, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			wantScenario("miss", a, tc.q)
			if got := stored(); !reflect.DeepEqual(got, Scenario{}) {
				t.Fatalf("stored entry holds scenario %+v", got)
			}
			for _, q := range []Query{tc.q, tc.sib} {
				a, cached, err := cs.AnswerCached(ctx, q)
				if err != nil || !cached {
					t.Fatalf("hit: cached=%v err=%v", cached, err)
				}
				wantScenario("do hit", a, q)
				a, _, ok := cs.Peek(q)
				if !ok {
					t.Fatal("Peek missed a resident entry")
				}
				wantScenario("Peek", a, q)
			}

			cs.StoreReplica(tc.sib, a)
			if got := stored(); !reflect.DeepEqual(got, Scenario{}) {
				t.Fatalf("replica entry holds scenario %+v", got)
			}
			a, _, ok = cs.Peek(tc.sib)
			if !ok {
				t.Fatal("Peek missed the replica")
			}
			wantScenario("replica Peek", a, tc.sib)
		})
	}
}
