package feasim

import (
	"feasim/internal/solve"
)

// Solver answers typed queries (Answer) and scenarios (Solve, the
// ReportQuery shorthand); implementations honor context cancellation. The
// three backends are NewAnalyticSolver (the paper's equations),
// NewExactSimSolver (the discrete-time validation simulator) and
// NewDESSolver (the discrete-event engine). Capabilities lists the query
// kinds a backend answers; the rest fail with ErrUnsupported.
type Solver = solve.Solver

// Report is a Solver's answer to a report query: point estimates for the
// Section 3 metrics, confidence intervals from the simulation backends, and
// the optional feasibility verdict and deadline probability.
type Report = solve.Report

// Interval is a closed interval [Lo, Hi]; simulation Reports carry one per
// metric.
type Interval = solve.Interval

// SolverOptions configures a backend built by NewSolver: the simulation
// protocol (zero means the paper's) and the DES warmup (zero means the
// default, negative disables).
type SolverOptions = solve.Options

// Backend names accepted by NewSolver, SolverByName and QuerySweepSpec.Backends.
const (
	BackendAnalytic = solve.BackendAnalytic
	BackendExact    = solve.BackendExact
	BackendDES      = solve.BackendDES
)

// Backends lists the backend names in canonical order.
func Backends() []string { return solve.Backends() }

// NewAnalyticSolver answers queries with the paper's exact discrete-time
// analysis (equations (1)-(8)), the threshold and partition solvers, the
// exact completion-time distribution and the scaled-problem sweep. It is the
// only backend answering every query kind.
func NewAnalyticSolver() Solver { return solve.Analytic{} }

// NewExactSimSolver answers queries with the discrete-time simulator of the
// analyzed model under the given batch-means protocol (zero value: the
// paper's protocol). Threshold queries are answered by empirical bisection,
// distribution queries from raw job samples.
func NewExactSimSolver(pr Protocol) Solver { return solve.ExactSim{Protocol: pr} }

// NewDESSolver answers queries with the discrete-event simulator:
// wall-clock owner think times, arbitrary distributions and heterogeneous
// stations. warmup < 0 disables warmup; 0 uses a small default. Threshold
// and partition queries are answered by empirical bisection.
func NewDESSolver(pr Protocol, warmup int) Solver { return solve.DES{Protocol: pr, Warmup: warmup} }

// NewSolver builds the named backend ("analytic", "exact", "des") with the
// given options — the constructor path that lets the CLI and sweep specs
// configure the DES warmup alongside the protocol.
func NewSolver(name string, opts SolverOptions) (Solver, error) {
	return solve.NewSolver(name, opts)
}

// SolverByName builds the named backend with the given protocol and default
// warmup. Use NewSolver to configure the DES warmup too.
func SolverByName(name string, pr Protocol) (Solver, error) {
	return solve.NewSolver(name, solve.Options{Protocol: pr})
}

// ---- The shared answer layer ----

// AnswerCache is a size-bounded LRU of query answers with single-flight
// coalescing of concurrent identical queries, shareable across backends
// (keys include the backend name — but nothing else of a solver's identity,
// so all solvers sharing one cache under one backend name must be
// configured identically; use separate caches for differently-configured
// solvers of the same backend). It backs the HTTP query service and the
// sweep engine's analytic dedup.
type AnswerCache = solve.AnswerCache

// CacheStats is a point-in-time snapshot of an AnswerCache.
type CacheStats = solve.CacheStats

// CachedSolver wraps any Solver with an AnswerCache; it implements Solver,
// so it drops in anywhere a backend does. Analytic answers are cached by
// scenario core (seed-independent); stochastic backends by their full
// envelope, seed included.
type CachedSolver = solve.CachedSolver

// DefaultAnswerCacheCapacity bounds an AnswerCache built with capacity <= 0.
const DefaultAnswerCacheCapacity = solve.DefaultAnswerCacheCapacity

// NewAnswerCache builds a cache bounded to capacity answers; capacity <= 0
// means DefaultAnswerCacheCapacity. The hot state is sharded by key hash so
// many-core traffic on distinct keys does not serialize on one mutex; the
// shard count is sized to the host's parallelism (one shard on a
// GOMAXPROCS=1 host, which cannot contend).
func NewAnswerCache(capacity int) *AnswerCache { return solve.NewAnswerCache(capacity) }

// NewAnswerCacheShards builds a cache with an explicit shard count (rounded
// up to a power of two, capped so each shard holds at least one entry;
// <= 0 selects the parallelism-sized default). shards == 1 is the
// single-mutex layout, kept as a contention baseline for benchmarks and for
// tests that need strict global LRU order.
func NewAnswerCacheShards(capacity, shards int) *AnswerCache {
	return solve.NewAnswerCacheShards(capacity, shards)
}

// NewCachedSolver wraps inner with the given cache; a nil cache gets a
// private one with the default capacity.
func NewCachedSolver(inner Solver, cache *AnswerCache) *CachedSolver {
	return solve.NewCachedSolver(inner, cache)
}
