package solve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
)

// ErrPanicked is the error shared with single-flight waiters when the
// execution they coalesced onto panicked. The panic itself propagates up the
// leader's stack (the serve layer recovers it into a 500); the waiters get
// this sentinel instead of a deadlock, and the key is left clean so the next
// caller re-executes.
var ErrPanicked = errors.New("solve: answer execution panicked")

// The answer layer sits between callers and backends: a size-bounded LRU of
// previously computed answers plus single-flight coalescing of concurrent
// identical queries. It generalizes the sweep engines' analytic dedup (the
// same answer keys) to any caller-facing surface — the HTTP
// service of internal/serve is the heavy-traffic consumer, but the CLI and
// library callers can wrap any Solver the same way.
//
// Cache identity. An answer is keyed by {backend, kind, scenario core,
// extra}. For the analytic backend the scenario core is the comparable
// analyticKey of scenario.go — deliberately excluding Name, Seed and
// OwnerCV2, which the exact analysis cannot see — so siblings differing only
// in those fields share one solve (seed-independent kinds only, in the sense
// that the analytic answer never depends on the seed). The stochastic
// backends' answers are a pure function of the entire query (the seed picks
// the sample path), so their identity is the full canonical JSON envelope:
// only literally identical queries — the hot case under heavy traffic —
// share an answer.
//
// Sharding and identity. Each key is hashed once, with a seeded
// maphash.Comparable over the whole answerKey. The hash's low bits pick one
// of a power-of-two number of shards, so concurrent lookups of distinct keys
// contend only within their shard, and the whole hash indexes the shard's
// entries. Keys whose hashes are equal chain through their entries, and
// every lookup compares the full answerKey, so an answer never depends on
// the hash: a collision costs one more comparison, never a wrong answer.
// Each shard carries its own LRU bound (capacity/shards), its own recency
// list and its own in-flight table. The capacity bound and single-flight
// guarantee are therefore per-shard, which preserves the global invariants
// that matter: total residency never exceeds the configured capacity, and
// concurrent identical queries (same key → same shard) still execute
// exactly once.
//
// Residency. An entry holds the key, the answer and, for bytes-safe keys,
// its canonical encoding; the recency list runs through the entries
// themselves. Report, distribution and timeline answers are stored with a
// zero Scenario (storedAnswer): every hit rebinds the caller's own scenario
// (rebindAnswer), so a stored copy would only keep the first requester's
// name, stations and schedule alive. Partition answers keep theirs, which
// the solve derives rather than echoes.

// DefaultAnswerCacheCapacity bounds an AnswerCache built with capacity <= 0.
const DefaultAnswerCacheCapacity = 4096

// maxAnswerCacheShards caps the shard count used by NewAnswerCache.
const maxAnswerCacheShards = 16

// defaultAnswerCacheShards sizes NewAnswerCache's layout to the available
// parallelism: shards exist to shed inter-core contention, and a
// GOMAXPROCS=1 process cannot contend on one mutex, so it gets one shard.
// Multi-core hosts get up to maxAnswerCacheShards.
func defaultAnswerCacheShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxAnswerCacheShards {
		n = maxAnswerCacheShards
	}
	return n
}

// answerKey identifies one (backend, query) answer: the backend name plus
// the query's dedup identity (the sweep engine's cacheKey, generalized).
type answerKey struct {
	backend string
	key     cacheKey
}

// answerCacheKey builds the cache identity for a query answered by the named
// backend; ok is false when the query has no stable identity (an analytic
// query outside the discrete model, or an unmarshalable query type). Solvers
// registered under one backend name must be configured identically
// (protocol, warmup) for sharing one AnswerCache to be sound.
func answerCacheKey(backend string, q Query) (answerKey, bool) {
	if backend == BackendAnalytic {
		k, ok := q.dedupKey()
		return answerKey{backend: backend, key: k}, ok
	}
	env, err := MarshalQuery(q)
	if err != nil {
		return answerKey{}, false
	}
	return answerKey{backend: backend, key: cacheKey{kind: q.Kind(), extra: string(env)}}, true
}

// rebindAnswer restores the requesting query's scenario on scenario-carrying
// answer kinds: an analytic cache hit may have been computed for a sibling
// that differs only in fields outside the dedup key (name, seed, owner CV²),
// and the caller should see its own scenario echoed back.
func rebindAnswer(a Answer, q Query) Answer {
	switch t := a.(type) {
	case ReportAnswer:
		if rq, ok := q.(ReportQuery); ok {
			t.Report.Scenario = rq.Scenario
			return t
		}
	case DistributionAnswer:
		if dq, ok := q.(DistributionQuery); ok {
			t.Scenario = dq.Scenario
			return t
		}
	case TimelineAnswer:
		if tq, ok := q.(TimelineQuery); ok {
			t.Scenario = tq.Scenario
			return t
		}
	}
	return a
}

// zeroElapsed scrubs the stored Elapsed stamp from answer kinds that carry
// one. The stored duration belongs to the original solve, not to a later
// lookup — without the scrub a ~37 µs hit would echo a ~780 µs elapsed_ns in
// the answer body.
func zeroElapsed(a Answer) Answer {
	switch t := a.(type) {
	case ReportAnswer:
		t.Report.Elapsed = 0
		return t
	case PartitionAnswer:
		t.Report.Elapsed = 0
		return t
	case TimelineAnswer:
		t.Elapsed = 0
		return t
	}
	return a
}

// cachedAnswer prepares a stored answer for a hit: rebind the caller's
// scenario and zero the stored Elapsed stamp.
func cachedAnswer(a Answer, q Query) Answer {
	return zeroElapsed(rebindAnswer(a, q))
}

// storedAnswer is the form an answer is kept in: the scenario that
// rebindAnswer overwrites on every hit is dropped, so a resident entry does
// not hold the first requester's Scenario alive.
func storedAnswer(a Answer) Answer {
	switch t := a.(type) {
	case ReportAnswer:
		t.Report.Scenario = Scenario{}
		return t
	case DistributionAnswer:
		t.Scenario = Scenario{}
		return t
	case TimelineAnswer:
		t.Scenario = Scenario{}
		return t
	}
	return a
}

// bytesSafe reports whether a stored answer's JSON encoding can be echoed
// verbatim to any future hit of this key. True exactly for non-analytic
// keys: they are keyed on the full canonical envelope, so every hit *is* the
// original query and the scenario rebind is a no-op. Analytic entries are
// seed/name/CV²-blind — a sibling hit must see its own scenario echoed back,
// which a byte replay cannot do.
func bytesSafe(key answerKey) bool { return key.backend != BackendAnalytic }

// encodeAnswer renders the canonical hit encoding of an answer: the JSON of
// the Elapsed-scrubbed body, so a byte replay never echoes a stale duration.
func encodeAnswer(a Answer) []byte {
	enc, err := json.Marshal(zeroElapsed(a))
	if err != nil {
		return nil // answers are plain structs; unreachable in practice
	}
	return enc
}

// CacheStats is a point-in-time snapshot of an AnswerCache, aggregated
// across its shards.
type CacheStats struct {
	// Hits counts lookups served from a stored answer.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to execute the backend.
	Misses int64 `json:"misses"`
	// Coalesced counts callers that waited on another caller's in-flight
	// execution of the same key instead of executing themselves.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts stored answers dropped by the per-shard LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries and Capacity describe the current occupancy summed over shards.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Shards is the shard count the key space is split across.
	Shards int `json:"shards"`
	// PerShard breaks the counters down by shard (in shard order), making
	// hash imbalance — one shard hot, its siblings idle — visible to
	// operators instead of hiding inside the aggregate.
	PerShard []ShardCacheStats `json:"per_shard,omitempty"`
}

// ShardCacheStats is one shard's slice of CacheStats.
type ShardCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// flight is one in-progress execution that concurrent identical queries
// attach to instead of re-executing.
type flight struct {
	done chan struct{}
	ans  Answer
	err  error
	// retry marks a flight that failed *because* the leader's own context
	// ended mid-solve: that error says nothing about the waiters' queries, so
	// they re-enter the cache (and one of them leads a fresh execution)
	// instead of inheriting a cancellation they did not cause. A failure that
	// is not the leader's context error — a deterministic domain error — is
	// shared as-is: re-executing it would fail identically.
	retry bool
}

// cacheShard is one slice of the key space: its own mutex, hash index,
// recency list and single-flight table. Keys never move between shards, so
// every per-key guarantee of a single-mutex design holds within a shard.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	n        int                  // resident entries
	index    map[uint64]*lruEntry // key hash → head of its collision chain
	// lru is the recency list's sentinel: lru.next is the most recently
	// used entry and lru.prev the least.
	lru      lruEntry
	inflight map[answerKey]*flight

	hits, misses, coalesced, evictions int64
}

// AnswerCache is the shared answer layer: sharded LRUs of answers plus
// per-shard single-flight tables. The zero value is not usable; construct
// with NewAnswerCache. All methods are safe for concurrent use.
type AnswerCache struct {
	seed   maphash.Seed
	shards []*cacheShard // len is a power of two
	// hashKey, when non-nil, replaces the seeded hash; tests use it to
	// force collisions.
	hashKey func(answerKey) uint64
}

// lruEntry is one resident answer. enc, when non-nil, is the canonical hit
// encoding (Elapsed-scrubbed JSON) of the answer, kept only for bytes-safe
// keys so the serve layer can echo hits without re-encoding the answer.
// chain links the entries whose key hashes are equal; prev and next link
// the shard's recency list.
type lruEntry struct {
	key        answerKey
	ans        Answer
	enc        []byte
	chain      *lruEntry
	prev, next *lruEntry
}

// NewAnswerCache builds a cache bounded to capacity answers; capacity <= 0
// means DefaultAnswerCacheCapacity. The key space is split across a
// power-of-two number of shards sized to the host's parallelism (up to
// maxAnswerCacheShards, fewer for tiny capacities so each shard holds at
// least one entry — and exactly one shard on a GOMAXPROCS=1 host, where
// there is no contention to shed).
func NewAnswerCache(capacity int) *AnswerCache {
	return NewAnswerCacheShards(capacity, 0)
}

// NewAnswerCacheShards builds a cache with an explicit shard count, rounded
// up to a power of two and capped so every shard holds at least one entry;
// shards <= 0 selects the parallelism-sized default. shards == 1 is the
// single-mutex layout — the contention baseline, also used by tests that
// pin strict global LRU order.
func NewAnswerCacheShards(capacity, shards int) *AnswerCache {
	if capacity <= 0 {
		capacity = DefaultAnswerCacheCapacity
	}
	if shards <= 0 {
		shards = defaultAnswerCacheShards()
	}
	n := 1
	for n < shards {
		n *= 2
	}
	// Cap AFTER rounding to a power of two: rounding up must never push the
	// shard count past capacity, or the excess shards would get a zero
	// capacity bound and evict every entry the instant it is stored.
	for n > capacity {
		n /= 2
	}
	c := &AnswerCache{seed: maphash.MakeSeed(), shards: make([]*cacheShard, n)}
	for i := range c.shards {
		// Spread the bound as evenly as integer division allows; the first
		// capacity%n shards absorb the remainder so the total is exact.
		cap := capacity / n
		if i < capacity%n {
			cap++
		}
		s := &cacheShard{
			capacity: cap,
			index:    make(map[uint64]*lruEntry),
			inflight: make(map[answerKey]*flight),
		}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		c.shards[i] = s
	}
	return c
}

// hash is the key's 64-bit hash. Identical keys always hash alike — the
// value is a pure function of the key's content — which is what keeps the
// per-shard single-flight exact.
func (c *AnswerCache) hash(key answerKey) uint64 {
	if c.hashKey != nil {
		return c.hashKey(key)
	}
	return maphash.Comparable(c.seed, key)
}

// shardFor returns the key's hash and the shard its low bits pick.
func (c *AnswerCache) shardFor(key answerKey) (uint64, *cacheShard) {
	h := c.hash(key)
	return h, c.shards[h&uint64(len(c.shards)-1)]
}

// find returns the resident entry of key, whose hash is h, or nil.
func (s *cacheShard) find(h uint64, key answerKey) *lruEntry {
	for e := s.index[h]; e != nil; e = e.chain {
		if e.key == key {
			return e
		}
	}
	return nil
}

// touch moves e to the front of the recency list.
func (s *cacheShard) touch(e *lruEntry) {
	if s.lru.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	s.pushFront(e)
}

func (s *cacheShard) pushFront(e *lruEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.next.prev = e
	s.lru.next = e
}

// Stats snapshots the counters, summed across shards, plus the per-shard
// breakdown.
func (c *AnswerCache) Stats() CacheStats {
	st := CacheStats{Shards: len(c.shards), PerShard: make([]ShardCacheStats, 0, len(c.shards))}
	for _, s := range c.shards {
		s.mu.Lock()
		sh := ShardCacheStats{
			Hits:      s.hits,
			Misses:    s.misses,
			Coalesced: s.coalesced,
			Evictions: s.evictions,
			Entries:   s.n,
			Capacity:  s.capacity,
		}
		s.mu.Unlock()
		st.Hits += sh.Hits
		st.Misses += sh.Misses
		st.Coalesced += sh.Coalesced
		st.Evictions += sh.Evictions
		st.Entries += sh.Entries
		st.Capacity += sh.Capacity
		st.PerShard = append(st.PerShard, sh)
	}
	return st
}

// peek returns the stored answer and encoding for key without counting a
// miss: it serves the cluster routing probe ("do I hold a replica?"), and a
// probe that finds nothing forwards the query instead of executing it, so it
// must not skew the miss counter that tracks local backend executions. A
// find still counts as a hit (it served traffic) and refreshes recency.
func (c *AnswerCache) peek(key answerKey) (Answer, []byte, bool) {
	h, s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.find(h, key)
	if e == nil {
		return nil, nil, false
	}
	s.touch(e)
	s.hits++
	return e.ans, e.enc, true
}

// store inserts an answer, evicting the least recently used entry of the
// key's shard past that shard's capacity bound.
func (c *AnswerCache) store(key answerKey, a Answer, enc []byte) {
	h, s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.storeLocked(s, h, key, a, enc)
}

// storeLocked stores a's storedAnswer form under key, whose hash is h, in
// its shard s; the caller holds s.mu.
func (c *AnswerCache) storeLocked(s *cacheShard, h uint64, key answerKey, a Answer, enc []byte) {
	a = storedAnswer(a)
	if e := s.find(h, key); e != nil {
		e.ans, e.enc = a, enc
		s.touch(e)
		return
	}
	e := &lruEntry{key: key, ans: a, enc: enc, chain: s.index[h]}
	s.index[h] = e
	s.pushFront(e)
	s.n++
	if s.n > s.capacity {
		c.evictLocked(s, s.lru.prev)
	}
}

// evictLocked drops e from its shard s; the caller holds s.mu. The entry
// does not keep its hash, so eviction hashes the key again.
func (c *AnswerCache) evictLocked(s *cacheShard, e *lruEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	h := c.hash(e.key)
	if head := s.index[h]; head == e {
		if e.chain == nil {
			delete(s.index, h)
		} else {
			s.index[h] = e.chain
		}
	} else {
		for head.chain != e {
			head = head.chain
		}
		head.chain = e.chain
	}
	s.n--
	s.evictions++
}

// do returns the cached answer for key, or executes fn — at most once across
// concurrent callers of the same key (single flight; same key → same shard).
// Callers that find an execution already in flight wait for its result; a
// caller whose context expires while waiting returns the context error
// without disturbing the execution. Errors are shared with waiting callers
// but never cached, so a transient failure does not poison the key — and
// when the shared failure *is* the leader's own context ending (its client
// hung up mid-solve), the waiters re-enter and one of them leads a fresh
// execution rather than inheriting a cancellation they did not cause. A
// deterministic failure that merely coincided with the leader's context
// ending is shared as-is: re-executing a guaranteed failure in a loop would
// never converge.
func (c *AnswerCache) do(ctx context.Context, key answerKey, fn func() (Answer, error)) (a Answer, enc []byte, cached bool, err error) {
	h, s := c.shardFor(key)
	for {
		s.mu.Lock()
		if e := s.find(h, key); e != nil {
			s.touch(e)
			s.hits++
			a, enc = e.ans, e.enc
			s.mu.Unlock()
			return a, enc, true, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.coalesced++
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.retry {
					continue
				}
				return f.ans, nil, false, f.err
			case <-ctx.Done():
				return nil, nil, false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.misses++
		s.mu.Unlock()

		func() {
			// A panicking fn must not strand the waiters on f.done nor leave
			// the inflight entry poisoning the key: share ErrPanicked with
			// the waiters, clear the flight, and let the panic continue to
			// the caller's recovery policy (the serve layer maps it to a 500).
			defer func() {
				if p := recover(); p != nil {
					f.err = fmt.Errorf("%w: %v", ErrPanicked, p)
					s.mu.Lock()
					delete(s.inflight, key)
					s.mu.Unlock()
					close(f.done)
					panic(p)
				}
			}()
			f.ans, f.err = fn()
		}()

		var stored []byte
		if f.err == nil && bytesSafe(key) {
			// Encode outside the shard lock: one encode per miss buys every
			// future hit a verbatim byte echo.
			stored = encodeAnswer(f.ans)
		}
		s.mu.Lock()
		delete(s.inflight, key)
		if f.err == nil {
			c.storeLocked(s, h, key, f.ans, stored)
		} else if cerr := ctx.Err(); cerr != nil && errors.Is(f.err, cerr) {
			// Only the leader's own context error is worth retrying; any
			// other failure under an expired context is deterministic for
			// the waiters too.
			f.retry = true
		}
		s.mu.Unlock()
		close(f.done)
		return f.ans, nil, false, f.err
	}
}

// CachedSolver wraps a Solver with an AnswerCache: repeated queries are
// served from the LRU and concurrent identical queries execute once. It
// implements Solver, so it drops in anywhere a backend does. Several
// CachedSolvers may share one AnswerCache (the HTTP service does this, one
// wrapper per backend over a single cache); keys always include the backend
// name, so answers never cross backend *names* — but the name is all they
// include of the solver's identity, so every solver sharing a cache under
// one name must be configured identically (protocol, warmup). Use separate
// caches for differently-configured solvers of the same backend.
type CachedSolver struct {
	inner Solver
	cache *AnswerCache
}

// NewCachedSolver wraps inner with the given cache; a nil cache gets a
// private one with the default capacity.
func NewCachedSolver(inner Solver, cache *AnswerCache) *CachedSolver {
	if cache == nil {
		cache = NewAnswerCache(0)
	}
	return &CachedSolver{inner: inner, cache: cache}
}

// Name implements Solver.
func (c *CachedSolver) Name() string { return c.inner.Name() }

// Capabilities implements Solver.
func (c *CachedSolver) Capabilities() []string { return c.inner.Capabilities() }

// Cache exposes the underlying AnswerCache (stats, sharing).
func (c *CachedSolver) Cache() *AnswerCache { return c.cache }

// Answer implements Solver.
func (c *CachedSolver) Answer(ctx context.Context, q Query) (Answer, error) {
	a, _, err := c.AnswerCached(ctx, q)
	return a, err
}

// AnswerCached answers like Answer and additionally reports whether the
// answer came from the cache (as opposed to a fresh — possibly coalesced —
// execution). Hits carry a zero Elapsed in the answer body: the stored
// solve's duration is not this lookup's.
func (c *CachedSolver) AnswerCached(ctx context.Context, q Query) (Answer, bool, error) {
	a, _, cached, err := c.AnswerCachedEncoded(ctx, q)
	return a, cached, err
}

// AnswerCachedEncoded answers like AnswerCached and additionally returns the
// canonical JSON encoding of the answer body when the hit carries one —
// non-analytic keys only, where the full-envelope identity makes a byte
// replay exact. A nil enc means the caller must encode the typed answer
// itself (fresh executions, coalesced waiters, and every analytic key, whose
// hits rebind the caller's scenario and so cannot be replayed verbatim).
func (c *CachedSolver) AnswerCachedEncoded(ctx context.Context, q Query) (Answer, []byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, false, err
	}
	key, ok := answerCacheKey(c.inner.Name(), q)
	if !ok {
		a, err := c.inner.Answer(ctx, q)
		return a, nil, false, err
	}
	a, enc, cached, err := c.cache.do(ctx, key, func() (Answer, error) {
		return c.inner.Answer(ctx, q)
	})
	if err != nil {
		return nil, nil, false, err
	}
	if cached {
		return cachedAnswer(a, q), enc, true, nil
	}
	return rebindAnswer(a, q), nil, false, nil
}

// Peek returns the cached answer (and, for non-analytic keys, its canonical
// encoding) without executing the backend or joining an in-flight execution.
// A miss leaves the miss counter untouched — Peek is the cluster routing
// probe, and a probe that finds nothing forwards the query to its home node
// rather than executing it here, so counting it would break the "misses ==
// local backend executions" reading the cluster endpoint reports.
func (c *CachedSolver) Peek(q Query) (Answer, []byte, bool) {
	key, ok := answerCacheKey(c.inner.Name(), q)
	if !ok {
		return nil, nil, false
	}
	a, enc, ok := c.cache.peek(key)
	if !ok {
		return nil, nil, false
	}
	return cachedAnswer(a, q), enc, true
}

// StoreReplica adopts an answer computed elsewhere — a peer's forwarded
// response — as a local cache entry, so repeats of the same query are served
// here without another network hop. The entry is indistinguishable from a
// locally computed one: non-analytic keys get the canonical hit encoding
// (re-encoded from the typed answer, never trusted bytes, so a peer's
// elapsed stamp cannot leak into future hits); analytic keys store the typed
// answer only, keeping the scenario rebind on sibling hits intact.
func (c *CachedSolver) StoreReplica(q Query, a Answer) {
	key, ok := answerCacheKey(c.inner.Name(), q)
	if !ok {
		return
	}
	var enc []byte
	if bytesSafe(key) {
		enc = encodeAnswer(a)
	}
	c.cache.store(key, a, enc)
}

// Solve implements Solver as the ReportQuery shorthand, so report answers
// share the cache with Answer callers.
func (c *CachedSolver) Solve(ctx context.Context, s Scenario) (Report, error) {
	a, err := c.Answer(ctx, ReportQuery{Scenario: s})
	if err != nil {
		return Report{}, err
	}
	ra, ok := a.(ReportAnswer)
	if !ok {
		return Report{}, fmt.Errorf("solve: report query answered with %T", a)
	}
	return ra.Report, nil
}
