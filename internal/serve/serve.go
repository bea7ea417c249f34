// Package serve exposes the typed Query/Answer API of internal/solve as a
// long-running HTTP/JSON service — the request/response front-end the
// ROADMAP's "heavy traffic" north star asks for, put directly over the PR 3
// envelope so the CLI, the library and the wire all speak one format.
//
// Endpoints:
//
//	POST /v1/query?backend=NAME   one query envelope {"kind": ...}; answers
//	                              with {"kind", "backend", "cached",
//	                              "elapsed_ns", "answer"}
//	POST /v1/batch?backend=NAME   a JSON array of query envelopes, answered
//	                              concurrently; one response with a per-item
//	                              status + answer (or error) in request
//	                              order
//	POST /v1/sweep                a QuerySweepSpec grid; answers with the
//	                              collected results in grid order
//	GET  /v1/healthz              liveness probe
//	GET  /v1/stats                cache hits/misses/coalesced, in-flight
//	                              gauge, per-kind counters, uptime
//
// Batches amortize the per-request overhead of the hot cache-hit path: the
// whole array shares one deadline and occupies one concurrency-limiter slot,
// its items fan out across an internal worker pool straight into the shared
// answer layer (so duplicate envelopes in one batch — or across concurrent
// batches — coalesce onto a single solve), and a malformed or failing item
// reports its own status without failing its neighbors. The batch request
// itself is 200 whenever the array was admitted at all.
//
// Error taxonomy: a body that does not decode or validate is 400; an
// unknown backend name is 400; a (backend, kind) pair outside the backend's
// Capabilities is 501 (mapped from *solve.UnsupportedError); a solve that
// exceeds the per-request deadline is 504; a request whose context ends
// while it is still queued on the concurrency limiter is 503; a solve cut
// short by the client disconnecting is 499 (and deliberately not counted
// in the Errors stat); a request turned away at admission because its
// estimated queue wait exceeds its deadline is 429 with a Retry-After hint
// (counted in Rejected, not Errors — shedding is the overload protection
// working); a request that panics is answered 500 by the recovery
// middleware and counted in Panics, never allowed to kill the process; any
// other solver failure (a workload the backend cannot express numerically,
// e.g. non-integral task demand on the exact simulator) is 422. Error
// bodies are {"error": "..."}.
//
// Grid sweeps run on the query-sweep engine, which builds its backends per
// spec from the standard registry: a spec that does not set its own
// protocol or warmup inherits the server's Options, so /v1/query and
// /v1/sweep answer the same envelope identically — but solvers injected via
// Config.Solvers are not visible to a grid sweep, and its points bypass the
// server's LRU: within one sweep, points sharing an analytic answer are
// solved once and the rest copy it. Frontier sweeps (?mode=frontier) probe
// through the server's solver set, and so its LRU, unless the spec sets its
// own protocol or warmup.
//
// In front of the solvers sits the shared answer layer of internal/solve:
// one size-bounded LRU across all backends (keys include the backend name)
// plus single-flight coalescing, so concurrent identical queries — the hot
// case under heavy traffic — execute once. Analytic answers are cached by
// scenario core (seed-independent); stochastic backends are cached by their
// full envelope, seed included, so a cached answer is always the one the
// query would have computed.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"feasim/internal/fault"
	"feasim/internal/peer"
	"feasim/internal/sim"
	"feasim/internal/solve"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultMaxInFlight bounds concurrently executing query/sweep requests.
	DefaultMaxInFlight = 64
	// DefaultRequestTimeout is the per-request solve deadline.
	DefaultRequestTimeout = time.Minute
	// maxBodyBytes caps request bodies; envelopes are small, sweeps and
	// batches modest.
	maxBodyBytes = 1 << 20
	// maxBatchItems caps one /v1/batch array: a batch shares one limiter
	// slot, so its internal fan-out must stay bounded.
	maxBatchItems = 1024
)

// Config configures a Server. The zero value serves the three standard
// backends with default options.
type Config struct {
	// Solvers maps backend names to implementations; nil means the three
	// standard backends (analytic, exact, des) built with Options. Every
	// solver is wrapped in the shared answer cache.
	Solvers map[string]solve.Solver
	// Options configures the standard backends when Solvers is nil.
	Options solve.Options
	// CacheCapacity bounds the shared answer LRU; <= 0 means
	// solve.DefaultAnswerCacheCapacity.
	CacheCapacity int
	// MaxInFlight bounds concurrently executing query/sweep requests;
	// <= 0 means DefaultMaxInFlight. Excess requests wait their turn (and
	// time out under the request deadline if the server stays saturated).
	MaxInFlight int
	// RequestTimeout is the per-request solve deadline; 0 means
	// DefaultRequestTimeout, negative disables the deadline.
	RequestTimeout time.Duration
	// DefaultBackend answers queries that do not name one with ?backend=;
	// "" means the analytic backend. Must be a key of the solver set.
	DefaultBackend string
	// SweepWorkers bounds each sweep's worker pool: specs that leave
	// Workers at 0 get this value, and client-supplied Workers are clamped
	// to it. 0 means the engine default (GOMAXPROCS).
	SweepWorkers int
	// Cluster, when non-nil, makes this node a member of the multi-node
	// answer tier: queries whose routing key is homed on a healthy peer are
	// forwarded there (and the answer cached locally as a replica) instead
	// of solved locally. New starts the cluster's health prober; Shutdown
	// stops it. Nil means single-node operation; /v1/cluster then reports
	// {"enabled": false}. All members must serve identically-configured
	// solver sets — the routing key is cache identity, which assumes one
	// backend name means one configuration fleet-wide.
	Cluster *peer.Cluster
	// ShedAnalytic opts into degraded-mode load shedding: when every limiter
	// slot is busy, a query addressed to a stochastic backend whose kind the
	// analytic backend also answers is served by the analytic backend
	// immediately — marked "degraded": true, counted in Stats.Sheds — instead
	// of queueing. Off by default: shedding trades fidelity for latency and
	// the operator must choose that trade.
	ShedAnalytic bool
	// Fault, when non-nil, wraps every solver with the chaos injector (the
	// peer transport is wrapped by the caller via Config.Client on the
	// cluster side). Nil injects nothing. For smoke tests and chaos drills
	// only — injected faults are indistinguishable from real ones downstream.
	Fault *fault.Injector
}

// Stats is the /v1/stats payload (and the Server.Stats snapshot). Queries
// counts /v1/query requests; Batches counts /v1/batch requests and
// BatchItems their parsed envelopes (each of which also counts in PerKind).
type Stats struct {
	UptimeNS   int64 `json:"uptime_ns"`
	InFlight   int64 `json:"in_flight"`
	Waiting    int64 `json:"waiting"` // queued on the limiter right now
	Queries    int64 `json:"queries"`
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`
	Sweeps     int64 `json:"sweeps"`
	Errors     int64 `json:"errors"`
	// Rejected counts 429 admission rejections (deadline-aware load
	// shedding); deliberately not part of Errors — rejecting early is the
	// overload protection working, not the service failing.
	Rejected int64 `json:"rejected"`
	// Panics counts recovered request panics (each also a 500 in Errors).
	Panics int64 `json:"panics"`
	// Sheds counts queries answered by the analytic backend in degraded mode.
	Sheds   int64            `json:"sheds"`
	PerKind map[string]int64 `json:"per_kind"`
	Cache   solve.CacheStats `json:"cache"`
	// Cluster carries the answer-tier view (ring, peer health,
	// forward/fallback counters) when cluster mode is on; omitted otherwise.
	Cluster *peer.Status `json:"cluster,omitempty"`
	// Chaos carries the fault injector's counters when one is configured.
	Chaos *fault.Stats `json:"chaos,omitempty"`
}

// Server is the HTTP front-end. Construct with New; serve with Serve (or
// mount Handler under an existing mux); stop with Shutdown, which drains
// in-flight requests.
type Server struct {
	solvers        map[string]*solve.CachedSolver
	backends       []string // sorted, for error messages
	cache          *solve.AnswerCache
	options        solve.Options // fills unset sweep-spec protocol/warmup
	defaultBackend string
	timeout        time.Duration
	sem            chan struct{}
	sweepWorkers   int
	cluster        *peer.Cluster // nil: single-node
	shedAnalytic   bool
	fault          *fault.Injector // nil: no chaos
	mux            *http.ServeMux
	handler        http.Handler // mux wrapped in panic recovery
	http           *http.Server

	parsed parseCache

	start      time.Time
	inFlight   atomic.Int64
	waiting    atomic.Int64 // requests queued on the limiter
	occupancy  atomic.Int64 // EWMA of slot hold time, ns (admission estimator)
	queries    atomic.Int64
	batches    atomic.Int64
	batchItems atomic.Int64
	sweeps     atomic.Int64
	errors     atomic.Int64
	rejected   atomic.Int64
	panics     atomic.Int64
	sheds      atomic.Int64
	perKind    map[string]*atomic.Int64
}

// parseCache memoizes ParseQuery by the raw envelope bytes. Under heavy
// traffic the same envelopes arrive verbatim over and over (the cache-hit
// case the service exists for), and the two-pass strict decode is several
// times the cost of the answer lookup itself. Reads are lock-free
// (sync.Map); the bound is enforced by swapping in a fresh map once the
// entry count passes parseCacheCap — crude eviction, but envelope diversity
// is tiny next to the churn of a real LRU and the swap costs one pointer
// store. Parsed queries are validated before caching and are treated as
// immutable by everything downstream; parse *errors* are never cached, so
// the malformed (cold) path stays un-memoized.
//
// An envelope is memoized on its second sighting, the doorkeeper of TinyLFU
// that core's table memo applies too: the first successful parse records
// only a fingerprint of the bytes in a fixed ring, and a parse whose
// fingerprint is in the ring stores the query. Cold traffic, where every
// envelope is distinct, therefore costs one ring slot per envelope instead
// of a key copy and a parsed query, while an envelope that repeats
// within parseSeenSlots first sightings is memoized from its second
// request on. A fingerprint collision only memoizes an envelope one
// sighting early; lookups still key on the full bytes.
type parseCache struct {
	entries atomic.Int64
	m       atomic.Pointer[sync.Map]

	// seen is the ring of the fingerprints of the last parseSeenSlots
	// first sightings, seenNext the slot written next; mu guards both.
	mu       sync.Mutex
	seen     [parseSeenSlots]uint64
	seenNext int
}

// parseCacheCap bounds the memo's entry count and parseCacheMaxEntryBytes
// its per-entry key size: envelopes above it (legal — maxBodyBytes is 1 MB)
// are parsed but never memoized, so an adversarial stream of huge distinct
// envelopes cannot pin more than parseCacheCap × parseCacheMaxEntryBytes
// ≈ 4 MB of raw keys. parseSeenSlots is the doorkeeper ring's length: a
// quarter of the memo, so the linear scan per first sighting (about 0.5 µs
// on a 2-vCPU Xeon) stays a tenth of the parse it follows.
const (
	parseCacheCap           = 4096
	parseCacheMaxEntryBytes = 1 << 10
	parseSeenSlots          = parseCacheCap / 4
)

// parseSeed seeds the envelope fingerprints.
var parseSeed = maphash.MakeSeed()

func (p *parseCache) parse(env []byte) (solve.Query, error) {
	memoize := len(env) <= parseCacheMaxEntryBytes
	var m *sync.Map
	if memoize {
		m = p.m.Load()
		if m == nil {
			m = &sync.Map{}
			if !p.m.CompareAndSwap(nil, m) {
				m = p.m.Load()
			}
		}
		if v, ok := m.Load(string(env)); ok {
			return v.(solve.Query), nil
		}
	}
	q, err := solve.ParseQuery(env)
	if err != nil {
		return nil, err
	}
	if !memoize || !p.seenBefore(maphash.Bytes(parseSeed, env)) {
		return q, nil
	}
	if p.entries.Add(1) > parseCacheCap {
		p.entries.Store(0)
		m = &sync.Map{}
		p.m.Store(m)
	}
	m.Store(string(env), q)
	return q, nil
}

// seenBefore reports whether the envelope fingerprinted h was sighted among
// the last parseSeenSlots first sightings, and records it if not.
func (p *parseCache) seenBefore(h uint64) bool {
	fp := h | 1 // 0 marks an empty slot
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.seen {
		if v == fp {
			return true
		}
	}
	p.seen[p.seenNext] = fp
	p.seenNext = (p.seenNext + 1) % parseSeenSlots
	return false
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	inner := cfg.Solvers
	if inner == nil {
		inner = make(map[string]solve.Solver, len(solve.Backends()))
		for _, name := range solve.Backends() {
			sv, err := solve.NewSolver(name, cfg.Options)
			if err != nil {
				return nil, err
			}
			inner[name] = sv
		}
	}
	if len(inner) == 0 {
		return nil, fmt.Errorf("serve: no solvers configured")
	}
	def := cfg.DefaultBackend
	if def == "" {
		def = solve.BackendAnalytic
		if _, ok := inner[def]; !ok {
			return nil, fmt.Errorf("serve: config needs DefaultBackend when the solver set lacks %q", def)
		}
	}
	if _, ok := inner[def]; !ok {
		return nil, fmt.Errorf("serve: default backend %q is not in the solver set", def)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	s := &Server{
		solvers:        make(map[string]*solve.CachedSolver, len(inner)),
		cache:          solve.NewAnswerCache(cfg.CacheCapacity),
		options:        cfg.Options,
		defaultBackend: def,
		timeout:        timeout,
		sem:            make(chan struct{}, maxInFlight),
		sweepWorkers:   cfg.SweepWorkers,
		cluster:        cfg.Cluster,
		shedAnalytic:   cfg.ShedAnalytic,
		fault:          cfg.Fault,
		start:          time.Now(),
		perKind:        make(map[string]*atomic.Int64, len(solve.QueryKinds())),
	}
	for name, sv := range inner {
		// Fault.Solver is the identity when no injector is configured.
		s.solvers[name] = solve.NewCachedSolver(s.fault.Solver(sv), s.cache)
		s.backends = append(s.backends, name)
	}
	sort.Strings(s.backends)
	for _, kind := range solve.QueryKinds() {
		s.perKind[kind] = &atomic.Int64{}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.handler = s.recoverPanics(s.mux)
	s.http = &http.Server{Handler: s.handler}
	if s.cluster != nil {
		s.cluster.Start()
	}
	return s, nil
}

// Handler returns the service's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// recoverPanics is the outermost layer of the handler chain: a panicking
// request — an injected chaos panic or a genuine solver bug — costs one 500
// and a counter bump, never the process. net/http's deliberate
// ErrAbortHandler is re-raised so connection aborts keep their meaning.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Add(1)
			s.writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: recovered request panic: %v", p))
		}()
		next.ServeHTTP(w, r)
	})
}

// Backends lists the served backend names in sorted order.
func (s *Server) Backends() []string { return append([]string(nil), s.backends...) }

// Serve accepts connections on l until Shutdown; like net/http it returns
// http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown stops accepting new requests and waits for in-flight ones to
// drain, bounded by ctx — the graceful path. In cluster mode it also stops
// the health prober.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	if s.cluster != nil {
		s.cluster.Close()
	}
	return err
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	st := Stats{
		UptimeNS:   time.Since(s.start).Nanoseconds(),
		InFlight:   s.inFlight.Load(),
		Waiting:    s.waiting.Load(),
		Queries:    s.queries.Load(),
		Batches:    s.batches.Load(),
		BatchItems: s.batchItems.Load(),
		Sweeps:     s.sweeps.Load(),
		Errors:     s.errors.Load(),
		Rejected:   s.rejected.Load(),
		Panics:     s.panics.Load(),
		Sheds:      s.sheds.Load(),
		PerKind:    make(map[string]int64, len(s.perKind)),
		Cache:      s.cache.Stats(),
	}
	for kind, n := range s.perKind {
		st.PerKind[kind] = n.Load()
	}
	if s.cluster != nil {
		cst := s.cluster.Status()
		st.Cluster = &cst
	}
	if s.fault != nil && s.fault.Spec().Enabled() {
		fst := s.fault.Stats()
		st.Chaos = &fst
	}
	return st
}

// admit applies the per-request deadline and the concurrency limiter. When
// it returns ok, the caller must call release when done.
//
// Admission is deadline-aware: when every slot is busy and the estimated
// queue wait (queue depth × smoothed slot hold time / capacity) already
// exceeds the request's remaining deadline, the request is rejected up front
// with 429 and a Retry-After hint instead of queueing to a certain 503/504.
// Rejecting early under overload is cheaper for both sides: the client can
// retry elsewhere immediately and the server's queue holds only requests
// that can still make their deadlines.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (ctx context.Context, release func(), ok bool) {
	ctx = r.Context()
	cancel := context.CancelFunc(func() {})
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	if deadline, has := ctx.Deadline(); has && len(s.sem) == cap(s.sem) {
		if est := s.queueWait(); est > 0 && est > time.Until(deadline) {
			cancel()
			s.rejectOverload(w, est)
			return nil, nil, false
		}
	}
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.waiting.Add(-1)
		cancel()
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server saturated: %w", ctx.Err()))
		return nil, nil, false
	}
	s.waiting.Add(-1)
	s.inFlight.Add(1)
	admitted := time.Now()
	return ctx, func() {
		s.noteOccupancy(time.Since(admitted))
		s.inFlight.Add(-1)
		<-s.sem
		cancel()
	}, true
}

// noteOccupancy folds one released slot's hold time into the admission
// estimator's EWMA (alpha 1/8 — a few releases adjust it, one outlier does
// not swing it).
func (s *Server) noteOccupancy(d time.Duration) {
	for {
		old := s.occupancy.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if s.occupancy.CompareAndSwap(old, next) {
			return
		}
	}
}

// queueWait estimates how long a request arriving now would wait for a
// limiter slot: requests ahead of it (plus itself), drained cap-at-a-time,
// each holding a slot for the smoothed hold time. Zero when the estimator
// has no samples yet — admission then falls back to queue-and-timeout.
func (s *Server) queueWait() time.Duration {
	avg := s.occupancy.Load()
	if avg == 0 {
		return 0
	}
	return time.Duration((s.waiting.Load() + 1) * avg / int64(cap(s.sem)))
}

// rejectOverload writes the 429 admission rejection. Deliberately not routed
// through writeError: shedding is the overload protection working as
// designed, so it counts in Rejected, not Errors.
func (s *Server) rejectOverload(w http.ResponseWriter, est time.Duration) {
	s.rejected.Add(1)
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error: fmt.Sprintf("serve: overloaded: estimated queue wait %v exceeds the request deadline", est),
	})
}

// shedQuery is the opt-in degraded mode: with every limiter slot busy, a
// query bound for a stochastic backend is answered by the analytic backend
// right now — marked "degraded": true — rather than queued behind expensive
// simulations. Analytic answers cost microseconds, so they run without a
// limiter slot; that is the point of shedding to them. Returns false when the
// query cannot be shed (already analytic, or the analytic backend is absent
// or lacks the kind) — the caller then queues normally.
func (s *Server) shedQuery(w http.ResponseWriter, r *http.Request, sv *solve.CachedSolver, q solve.Query) bool {
	an, ok := s.solvers[solve.BackendAnalytic]
	if !ok || sv.Name() == solve.BackendAnalytic {
		return false
	}
	if !slices.Contains(an.Capabilities(), q.Kind()) {
		return false
	}
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	defer cancel()
	s.queries.Add(1)
	s.perKind[q.Kind()].Add(1)
	s.sheds.Add(1)
	start := time.Now()
	a, enc, cached, err := an.AnswerCachedEncoded(ctx, q)
	if err != nil {
		s.writeError(w, statusForSolveError(err), err)
		return true
	}
	s.writeJSON(w, http.StatusOK, queryResponse{
		Kind:      a.Kind(),
		Backend:   an.Name(),
		Cached:    cached,
		Degraded:  true,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Answer:    answerPayload(a, enc, cached),
	})
	return true
}

// queryResponse is the /v1/query success payload. Answer is either a typed
// solve.Answer (cold path) or the cache's pre-encoded json.RawMessage bytes
// (stochastic-key hits and cluster replicas) — identical on the wire.
type queryResponse struct {
	Kind    string `json:"kind"`
	Backend string `json:"backend"`
	Cached  bool   `json:"cached"`
	// Degraded marks an answer served by the analytic backend in place of
	// the requested one under shed-to-analytic load shedding.
	Degraded  bool  `json:"degraded,omitempty"`
	ElapsedNS int64 `json:"elapsed_ns"`
	Answer    any   `json:"answer"`
}

// answerPayload picks the wire form of an answer: cached hits whose entry
// carries its canonical encoding are echoed as raw bytes, skipping the
// per-response reflection encode that PR 5 left on the stochastic hit path.
func answerPayload(a solve.Answer, enc []byte, cached bool) any {
	if cached && enc != nil {
		return json.RawMessage(enc)
	}
	return a
}

// sweepResponse is the /v1/sweep success payload.
type sweepResponse struct {
	Points  int                 `json:"points"`
	Failed  int                 `json:"failed"`
	Cached  int                 `json:"cached"`
	Results []solve.QueryResult `json:"results"`
}

// errorResponse is every error payload.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Read and validate before taking a limiter slot: the semaphore bounds
	// concurrent *solves*, and slow or malformed clients should not be able
	// to occupy it without ever reaching a solver.
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	q, err := s.parsed.parse(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sv, err := s.backend(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.shedAnalytic && len(s.sem) == cap(s.sem) {
		if s.shedQuery(w, r, sv, q) {
			return
		}
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.queries.Add(1)
	s.perKind[q.Kind()].Add(1)
	if s.cluster != nil {
		if r.Header.Get(peer.ForwardHeader) != "" {
			// Loop guard: a forwarded request is answered here no matter what
			// this node thinks the key's home is.
			s.cluster.NoteForwardedIn()
		} else if s.routeQuery(ctx, w, sv, q, body, r.URL.RawQuery) {
			return
		}
	}
	start := time.Now()
	a, enc, cached, err := sv.AnswerCachedEncoded(ctx, q)
	if err != nil {
		s.writeError(w, statusForSolveError(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, queryResponse{
		Kind:      a.Kind(),
		Backend:   sv.Name(),
		Cached:    cached,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Answer:    answerPayload(a, enc, cached),
	})
}

// batchItem is one element of the /v1/batch response, mirroring the
// queryResponse shape plus the per-item status of the error taxonomy.
type batchItem struct {
	Status    int    `json:"status"`
	Kind      string `json:"kind,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
	Answer    any    `json:"answer,omitempty"`
	Error     string `json:"error,omitempty"`
}

// batchResponse is the /v1/batch success payload; Items keeps request order.
type batchResponse struct {
	Backend string      `json:"backend"`
	OK      int         `json:"ok"`
	Failed  int         `json:"failed"`
	Cached  int         `json:"cached"`
	Items   []batchItem `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// As in handleQuery: read, decode the array shell and resolve the
	// backend before occupying a limiter slot. Individual envelopes are
	// parsed per item — a malformed one fails alone.
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var envs []json.RawMessage
	if err := json.Unmarshal(body, &envs); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad batch: want a JSON array of query envelopes: %w", err))
		return
	}
	if len(envs) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: empty batch"))
		return
	}
	if len(envs) > maxBatchItems {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: batch of %d exceeds %d items", len(envs), maxBatchItems))
		return
	}
	sv, err := s.backend(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	queries := make([]solve.Query, len(envs))
	items := make([]batchItem, len(envs))
	todo := make([]int, 0, len(envs))
	for i, env := range envs {
		q, err := s.parsed.parse(env)
		if err != nil {
			items[i] = batchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		queries[i] = q
		todo = append(todo, i)
	}

	// One admission per batch: the array shares a deadline and one limiter
	// slot, and fans out over an internal pool bounded by the host's cores.
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.batches.Add(1)
	s.batchItems.Add(int64(len(todo)))
	for _, i := range todo {
		s.perKind[queries[i].Kind()].Add(1)
	}
	if s.cluster != nil {
		if r.Header.Get(peer.ForwardHeader) != "" {
			// Loop guard: answer a peer's sub-batch entirely locally.
			s.cluster.NoteForwardedIn()
		} else {
			todo = s.routeBatchItems(ctx, sv, envs, queries, items, todo, r.URL.RawQuery)
		}
	}
	answerItem := func(i int) {
		// A panicking item — injected or real — fails alone with a 500,
		// like any other per-item error; its worker keeps draining.
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.errors.Add(1)
				items[i] = batchItem{Status: http.StatusInternalServerError, Error: fmt.Sprintf("serve: recovered item panic: %v", p)}
			}
		}()
		start := time.Now()
		a, enc, cached, err := sv.AnswerCachedEncoded(ctx, queries[i])
		if err != nil {
			items[i] = batchItem{Status: statusForSolveError(err), Error: err.Error()}
			return
		}
		items[i] = batchItem{
			Status:    http.StatusOK,
			Kind:      a.Kind(),
			Cached:    cached,
			ElapsedNS: time.Since(start).Nanoseconds(),
			Answer:    answerPayload(a, enc, cached),
		}
	}
	// WithoutCancel: after ctx ends each item still gets its own deadline error.
	solve.ForEach(context.WithoutCancel(ctx), len(todo), runtime.GOMAXPROCS(0), func(j int) { answerItem(todo[j]) })

	resp := batchResponse{Backend: sv.Name(), Items: items}
	for _, it := range items {
		if it.Status == http.StatusOK {
			resp.OK++
			if it.Cached {
				resp.Cached++
			}
		} else {
			resp.Failed++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSweep dispatches on the ?mode= selector: the buffered grid sweep
// (the original /v1/sweep contract) or the streamed frontier refinement.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "grid":
		s.handleGridSweep(w, r)
	case "frontier":
		s.handleFrontierSweep(w, r)
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown sweep mode %q (want \"grid\" or \"frontier\")", mode))
	}
}

func (s *Server) handleGridSweep(w http.ResponseWriter, r *http.Request) {
	// As in handleQuery: decode before occupying a limiter slot.
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := solve.ParseQuerySweep(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// The client may size the sweep's worker pool down but never past the
	// server's bound — otherwise one request could multiply the MaxInFlight
	// concurrency guarantee by an arbitrary factor.
	maxWorkers := s.sweepWorkers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	if spec.Workers <= 0 || spec.Workers > maxWorkers {
		spec.Workers = maxWorkers
	}
	// A spec that does not configure its simulation backends inherits the
	// server's, so /v1/query and /v1/sweep answer one envelope identically.
	if spec.Protocol == nil && s.options.Protocol != (sim.Protocol{}) {
		pr := s.options.Protocol
		spec.Protocol = &pr
	}
	if spec.Warmup == 0 {
		spec.Warmup = s.options.Warmup
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.sweeps.Add(1)
	if spec.Base != nil {
		s.perKind[spec.Base.Kind()].Add(1)
	}
	results, err := solve.CollectQueries(ctx, spec)
	if err != nil {
		s.writeError(w, statusForSolveError(err), fmt.Errorf("sweep stopped after %d points: %w", len(results), err))
		return
	}
	resp := sweepResponse{Points: len(results), Results: results}
	for _, res := range results {
		if res.Err != nil {
			resp.Failed++
		}
		if res.Cached {
			resp.Cached++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// frontierDoneRecord is the terminal NDJSON line of a completed frontier
// stream.
type frontierDoneRecord struct {
	Done  bool                `json:"done"`
	Stats solve.FrontierStats `json:"stats"`
}

// frontierErrorRecord is the terminal NDJSON line of a frontier stream cut
// short after the 200 status line was already committed. Status carries the
// taxonomy code the run would have returned had it failed before streaming
// (499 client-gone, 504 deadline), so clients need no out-of-band signal to
// distinguish a truncated stream from a complete one.
type frontierErrorRecord struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// handleFrontierSweep streams the adaptive boundary refinement as NDJSON:
// one line per resolved cell, flushed as each refinement level classifies
// it, then exactly one terminal record — done+stats on success, error+status
// on a mid-run cut. Probes run through the server's cached solver set, so
// repeated refinements, and /v1/query calls for the same points, compound in
// the shared answer LRU; grid sweeps do not share it.
func (s *Server) handleFrontierSweep(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := solve.ParseFrontier(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	backend := spec.Backend
	if backend == "" {
		backend = solve.BackendAnalytic
	}
	sv, ok := s.solvers[backend]
	if !ok {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown backend %q (want one of %v)", backend, s.backends))
		return
	}
	// Same worker clamp as the grid path: one request must not multiply the
	// MaxInFlight concurrency guarantee.
	maxWorkers := s.sweepWorkers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	if spec.Workers <= 0 || spec.Workers > maxWorkers {
		spec.Workers = maxWorkers
	}
	// The server's solvers already run at the server's protocol/warmup (and
	// through the fault injector and answer cache). A spec that overrides the
	// simulation protocol needs its own registry-built backend instead —
	// those probes bypass the shared cache, like any custom-protocol run.
	solver := solve.Solver(sv)
	if spec.Protocol != nil || spec.Warmup != 0 {
		solver = nil
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.sweeps.Add(1)
	if spec.Base != nil {
		s.perKind[spec.Base.Kind()].Add(1)
	}
	cells, stats, err := solve.SweepFrontierSolver(ctx, spec, solver)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := 0
	for c := range cells {
		if err := enc.Encode(c); err != nil {
			// The client is gone; drain the run via ctx cancellation upstream.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		streamed++
	}
	if err := ctx.Err(); err != nil {
		// The 200 status line is already on the wire; the taxonomy code
		// rides in the terminal record instead. 499 is the client's own
		// hang-up, not a service error — mirror writeError's counting.
		status := statusForSolveError(err)
		if status != statusClientClosedRequest {
			s.errors.Add(1)
		}
		enc.Encode(frontierErrorRecord{
			Error:  fmt.Sprintf("frontier sweep stopped after %d cells: %v", streamed, err),
			Status: status,
		})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	if err := enc.Encode(frontierDoneRecord{Done: true, Stats: stats()}); err == nil && flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// backend resolves the ?backend= selector against the solver set.
func (s *Server) backend(r *http.Request) (*solve.CachedSolver, error) {
	name := r.URL.Query().Get("backend")
	if name == "" {
		name = s.defaultBackend
	}
	sv, ok := s.solvers[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown backend %q (want one of %v)", name, s.backends)
	}
	return sv, nil
}

// readBody drains the (bounded) request body.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("serve: reading request body: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("serve: request body exceeds %d bytes", maxBodyBytes)
	}
	return body, nil
}

// statusClientClosedRequest reports a solve cut short because the client
// went away (the nginx 499 convention; net/http has no name for it). The
// response is unreadable by definition, but the status keeps logs truthful
// and writeError keeps these out of the Errors counter.
const statusClientClosedRequest = 499

// statusForSolveError maps solver failures onto the documented taxonomy.
func statusForSolveError(err error) int {
	switch {
	case errors.Is(err, solve.ErrPanicked):
		// A coalesced waiter whose single-flight leader panicked: the
		// leader's own request 500s via the recovery middleware; waiters
		// report the same server fault.
		return http.StatusInternalServerError
	case errors.Is(err, solve.ErrUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// encoderPool recycles response buffers (each carrying its own
// json.Encoder) across requests, so the hot cache-hit path — and the large
// batch responses — do not re-allocate an encoding buffer per response.
var encoderPool = sync.Pool{New: func() any {
	buf := &bytes.Buffer{}
	return &pooledEncoder{buf: buf, enc: json.NewEncoder(buf)}
}}

type pooledEncoder struct {
	buf *bytes.Buffer
	enc *json.Encoder
}

// pooledEncoderMaxBytes stops one huge response (a big sweep or batch) from
// pinning its buffer in the pool forever.
const pooledEncoderMaxBytes = 1 << 20

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	pe := encoderPool.Get().(*pooledEncoder)
	pe.buf.Reset()
	if err := pe.enc.Encode(v); err != nil {
		// Answers are plain data structs; failing to marshal one is a bug.
		// Even this path keeps the JSON error-body contract.
		s.errors.Add(1)
		pe.buf.Reset()
		fmt.Fprintf(pe.buf, "{\"error\": %q}\n", err.Error())
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(pe.buf.Bytes())
	if pe.buf.Cap() <= pooledEncoderMaxBytes {
		encoderPool.Put(pe)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	// A client hanging up mid-solve is its business, not a service error.
	if status != statusClientClosedRequest {
		s.errors.Add(1)
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}
