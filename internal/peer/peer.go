// Package peer is the cluster subsystem of the answer tier: a consistent-hash
// ring over the answer-cache routing hash (solve.RouteHash), static membership
// with per-peer health probing, and the HTTP forwarding transport the serve
// layer uses to route a query to its home node.
//
// The division of labor is deliberate: this package deals only in routing
// hashes (uint64), member URLs and raw request/response bytes. It knows
// nothing of queries or answers — the serve layer computes the routing hash,
// decides route-or-solve, and interprets the forwarded body. That keeps the
// ring, health and transport testable without a solver and reusable for any
// future keyspace.
package peer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ForwardHeader marks a request as already forwarded once by a peer; its
// value is the forwarding node's URL. A node receiving it must answer
// locally, never re-forward — the loop guard that bounds any routing
// disagreement (mid-rollout config skew, say) to a single extra hop.
const ForwardHeader = "X-Feasim-Forwarded"

// Defaults applied by New for zero Config fields.
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = 1 * time.Second
	DefaultFailAfter     = 3
)

// DefaultForwardTimeout bounds a forwarded request when the caller's context
// has no earlier deadline.
const DefaultForwardTimeout = 30 * time.Second

// Config describes one node's view of the static cluster.
type Config struct {
	// Self is this node's own advertised base URL (as it appears in every
	// peer's -peers list). Required.
	Self string
	// Peers is the static member list: base URLs of the other nodes. Self is
	// tolerated and dropped; duplicates and trailing slashes are normalized.
	// At least one distinct peer is required — a single-node deployment
	// should run without a Cluster at all.
	Peers []string
	// ProbeInterval is the health-poll period (<= 0: DefaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeTimeout bounds a single /v1/healthz probe (<= 0: DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure count that opens a peer's breaker
	// (<= 0: DefaultFailAfter). One probe success readmits it.
	FailAfter int
	// Client issues probes and forwards (nil: a private default client).
	Client *http.Client

	// BreakerCooldown is how long an open breaker refuses traffic before
	// Allow grants a single half-open trial (<= 0: DefaultBreakerCooldown).
	// The background prober readmits sooner when the peer recovers.
	BreakerCooldown time.Duration
	// RetryMax bounds the retries of one Forward call (0: DefaultRetryMax,
	// < 0: retries disabled).
	RetryMax int
	// RetryBudget caps the retry/hedge token bucket; each logical forward
	// deposits DefaultRetryBudgetRatio tokens (<= 0: DefaultRetryBudget).
	RetryBudget float64
	// RetryBaseDelay is the first backoff step; retry #n sleeps uniform in
	// [0, RetryBaseDelay·2^n] (<= 0: DefaultRetryBaseDelay).
	RetryBaseDelay time.Duration
	// HedgeDelay seeds the adaptive hedge delay before enough forward
	// latencies are observed (0: DefaultHedgeDelay, < 0: hedging disabled).
	HedgeDelay time.Duration
}

// peerState is the mutable health record of one remote member: its circuit
// breaker plus per-peer counters.
type peerState struct {
	url           string
	state         breakerState
	fails         int // consecutive failures (probe or forward)
	lastError     string
	ejections     int64 // breaker open transitions
	forwards      int64 // forwards attempted to this peer
	forwardErrors int64

	window        []bool // rolling outcome ring, true = failure (closed state only)
	windowIdx     int
	windowFails   int
	openedAt      time.Time // when the breaker last opened
	halfOpenTrial bool      // the single half-open trial is in flight
}

// Cluster is one node's live view of the answer-tier ring: the (immutable)
// member ring, the (mutable) per-peer health table, and the routing counters
// surfaced by GET /v1/cluster. Safe for concurrent use.
type Cluster struct {
	self          string
	members       []string // sorted; includes self
	ring          ring
	client        *http.Client
	probeInterval time.Duration
	probeTimeout  time.Duration
	failAfter     int

	breakerCooldown time.Duration
	retryMax        int
	retryBaseDelay  time.Duration
	hedgeInitial    time.Duration
	hedgeDisabled   bool
	budget          *retryBudget

	mu    sync.Mutex
	peers map[string]*peerState // remote members only

	jitterMu sync.Mutex
	jitter   *rand.Rand // backoff jitter

	latMu      sync.Mutex
	latSamples []time.Duration // ring of recent successful forward latencies
	latIdx     int
	latCount   int64
	hedgeEWMA  time.Duration // smoothed p95, the adaptive hedge delay

	forwards        atomic.Int64 // logical forwards attempted (this node → a home peer)
	forwardErrors   atomic.Int64 // logical forwards that failed after retries
	fallbacks       atomic.Int64 // remote-homed queries solved locally instead
	forwardedIn     atomic.Int64 // forwarded requests received from peers
	replicaHits     atomic.Int64 // remote-homed queries served from the local replica cache
	retries         atomic.Int64 // extra forward attempts after a failed one
	budgetExhausted atomic.Int64 // retries/hedges refused by the token bucket
	hedges          atomic.Int64 // hedge attempts fired (remote or local)
	hedgesWon       atomic.Int64 // hedges that answered before the home
	hedgesLost      atomic.Int64 // homes that answered after a hedge fired
	hedgesLocal     atomic.Int64 // hedges resolved by a local solve
	forwardCorrupt  atomic.Int64 // 200 forward bodies that failed to parse

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// normalizeURL validates a member URL: absolute, http or https, no query or
// fragment; the trailing slash is stripped so URLs compare canonically.
func normalizeURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("peer: bad URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("peer: URL %q must be absolute http(s), got scheme %q", raw, u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("peer: URL %q has no host", raw)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("peer: URL %q must not carry a query or fragment", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// New validates the config and builds the node's cluster view. The health
// prober is not started — call Start once the node is ready to serve (the
// serve layer does this) so tests can drive health transitions manually.
// All peers start healthy: a cold cluster routes optimistically and lets the
// first probe or forward correct the picture.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("peer: Config.Self is required")
	}
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{self: true}
	members := []string{self}
	peers := make(map[string]*peerState)
	for _, raw := range cfg.Peers {
		p, err := normalizeURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[p] {
			continue // duplicates and self in -peers are tolerated
		}
		seen[p] = true
		members = append(members, p)
		peers[p] = &peerState{url: p, state: breakerClosed}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("peer: no peers besides self; run without a cluster instead")
	}
	sort.Strings(members)
	r, err := buildRing(members)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		self:            self,
		members:         members,
		ring:            r,
		client:          cfg.Client,
		probeInterval:   cfg.ProbeInterval,
		probeTimeout:    cfg.ProbeTimeout,
		failAfter:       cfg.FailAfter,
		breakerCooldown: cfg.BreakerCooldown,
		retryMax:        cfg.RetryMax,
		retryBaseDelay:  cfg.RetryBaseDelay,
		hedgeInitial:    cfg.HedgeDelay,
		hedgeDisabled:   cfg.HedgeDelay < 0,
		jitter:          jitterSource(),
		peers:           peers,
		stop:            make(chan struct{}),
		done:            make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.probeInterval <= 0 {
		c.probeInterval = DefaultProbeInterval
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = DefaultProbeTimeout
	}
	if c.failAfter <= 0 {
		c.failAfter = DefaultFailAfter
	}
	if c.breakerCooldown <= 0 {
		c.breakerCooldown = DefaultBreakerCooldown
	}
	switch {
	case c.retryMax == 0:
		c.retryMax = DefaultRetryMax
	case c.retryMax < 0:
		c.retryMax = 0
	}
	budgetCap := cfg.RetryBudget
	if budgetCap <= 0 {
		budgetCap = DefaultRetryBudget
	}
	c.budget = newRetryBudget(budgetCap, DefaultRetryBudgetRatio)
	if c.retryBaseDelay <= 0 {
		c.retryBaseDelay = DefaultRetryBaseDelay
	}
	if c.hedgeInitial == 0 {
		c.hedgeInitial = DefaultHedgeDelay
	}
	c.latSamples = make([]time.Duration, 0, 64)
	return c, nil
}

// Self returns this node's canonical URL.
func (c *Cluster) Self() string { return c.self }

// Members returns the full sorted member list, self included.
func (c *Cluster) Members() []string {
	out := make([]string, len(c.members))
	copy(out, c.members)
	return out
}

// Home maps a routing hash to its home member. local is true when this node
// is the home (answer here; no forwarding).
func (c *Cluster) Home(h uint64) (url string, local bool) {
	owner := c.ring.owner(h)
	return owner, owner == c.self
}

// Healthy reports whether the given member's breaker is closed. Self is
// always healthy; unknown URLs are not. Routing decisions should prefer
// Allow, which additionally grants the half-open trial of an open breaker.
func (c *Cluster) Healthy(member string) bool {
	if member == c.self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[member]
	return ok && p.state == breakerClosed
}

// Start launches the background health prober. Idempotent.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		go c.probeLoop()
	})
}

// Close stops the prober and waits for it to exit. Idempotent; safe to call
// even if Start never ran.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: unblock the wait
	<-c.done
}

func (c *Cluster) probeLoop() {
	defer close(c.done)
	// Probe immediately on start, then on the ticker: a node joining a ring
	// where a peer is already dead should learn so within one probe, not one
	// interval.
	c.probeAll()
	t := time.NewTicker(c.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Cluster) probeAll() {
	c.mu.Lock()
	urls := make([]string, 0, len(c.peers))
	for u := range c.peers {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	for _, u := range urls {
		c.probeOne(u)
	}
}

func (c *Cluster) probeOne(member string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+"/v1/healthz", nil)
	if err != nil {
		c.noteFailure(member, err.Error())
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.noteFailure(member, err.Error())
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.noteFailure(member, fmt.Sprintf("healthz status %d", resp.StatusCode))
		return
	}
	c.noteSuccess(member)
}

// noteFailure records a probe/forward failure against the peer's breaker: a
// closed breaker opens on failAfter consecutive failures or on the rolling
// failure rate; a half-open trial failure re-opens with a fresh cooldown; an
// open breaker just refreshes its cooldown (the peer is still down).
func (c *Cluster) noteFailure(member, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[member]
	if !ok {
		return
	}
	p.fails++
	p.lastError = errMsg
	switch p.state {
	case breakerClosed:
		p.pushOutcome(true)
		if p.fails >= c.failAfter || p.windowTrips() {
			p.state = breakerOpen
			p.openedAt = time.Now()
			p.ejections++
		}
	case breakerHalfOpen:
		p.state = breakerOpen
		p.openedAt = time.Now()
		p.halfOpenTrial = false
		p.ejections++
	case breakerOpen:
		p.openedAt = time.Now()
	}
}

// noteSuccess records a probe/forward success: the failure streak resets and
// an open or half-open breaker closes (readmit), starting from a clean
// outcome window.
func (c *Cluster) noteSuccess(member string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[member]
	if !ok {
		return
	}
	p.fails = 0
	p.lastError = ""
	if p.state == breakerClosed {
		p.pushOutcome(false)
		return
	}
	p.state = breakerClosed
	p.halfOpenTrial = false
	p.clearWindow()
}

// Forward relays a query body to the home member over the peer's own wire
// format: POST member+path?rawQuery with the loop-guard header set. The
// response status and body are returned verbatim for statuses below 500 —
// including 4xx, which means the home judged the envelope itself bad and the
// verdict should be echoed, not retried locally. Transport errors and 5xx
// (the home is broken, not the envelope) count against the peer's health and
// return an error so the caller falls back to a local solve.
// One logical Forward makes up to 1+RetryMax attempts: transport errors and
// 5xx retry with full-jitter exponential backoff, each retry paid for from
// the cluster-wide retry budget. Every failed attempt counts against the
// peer's breaker; the counters (forwards, forwardErrors) count logical calls.
func (c *Cluster) Forward(ctx context.Context, member, path, rawQuery string, body []byte) (status int, respBody []byte, err error) {
	c.forwards.Add(1)
	c.mu.Lock()
	if p, ok := c.peers[member]; ok {
		p.forwards++
	}
	c.mu.Unlock()
	c.budget.deposit()

	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultForwardTimeout)
		defer cancel()
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		start := time.Now()
		st, data, aerr := c.forwardOnce(ctx, member, path, rawQuery, body)
		if aerr == nil {
			c.noteSuccess(member)
			c.observeForwardLatency(time.Since(start))
			return st, data, nil
		}
		if errors.Is(ctx.Err(), context.Canceled) {
			// The caller gave up — a hedge winner cancelled this attempt, or
			// the client hung up. Not the peer's fault: no health penalty,
			// no error counter, no retry.
			return 0, nil, aerr
		}
		lastErr = aerr
		c.noteFailure(member, aerr.Error())
		if attempt >= c.retryMax || ctx.Err() != nil {
			break
		}
		if !c.budget.withdraw() {
			c.budgetExhausted.Add(1)
			break
		}
		c.retries.Add(1)
		if !sleepCtx(ctx, c.backoff(attempt)) {
			break
		}
	}
	c.forwardErrors.Add(1)
	c.mu.Lock()
	if p, ok := c.peers[member]; ok {
		p.forwardErrors++
	}
	c.mu.Unlock()
	return 0, nil, lastErr
}

// forwardOnce is a single forward attempt: POST, read, judge the status.
func (c *Cluster) forwardOnce(ctx context.Context, member, path, rawQuery string, body []byte) (int, []byte, error) {
	u := member + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("peer: building forward to %s: %w", member, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("peer: forward to %s: %w", member, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("peer: reading forward response from %s: %w", member, err)
	}
	if resp.StatusCode >= 500 {
		return 0, nil, fmt.Errorf("peer: %s answered a forward with status %d", member, resp.StatusCode)
	}
	return resp.StatusCode, data, nil
}

// NoteFallback counts a remote-homed query answered by a local solve because
// the home was unhealthy or the forward failed.
func (c *Cluster) NoteFallback() { c.fallbacks.Add(1) }

// NoteForwardedIn counts a forwarded request received from a peer (seen via
// ForwardHeader).
func (c *Cluster) NoteForwardedIn() { c.forwardedIn.Add(1) }

// NoteReplicaHit counts a remote-homed query served from this node's local
// replica cache without touching the network.
func (c *Cluster) NoteReplicaHit() { c.replicaHits.Add(1) }

// PeerStatus is the /v1/cluster health record of one remote member.
type PeerStatus struct {
	URL              string `json:"url"`
	Healthy          bool   `json:"healthy"`
	Breaker          string `json:"breaker"` // closed | open | half-open
	ConsecutiveFails int    `json:"consecutive_fails"`
	LastError        string `json:"last_error,omitempty"`
	Ejections        int64  `json:"ejections"` // breaker open transitions
	Forwards         int64  `json:"forwards"`
	ForwardErrors    int64  `json:"forward_errors"`
}

// Status is a point-in-time snapshot of the cluster view: ring layout, peer
// health and the routing counters. Serialized as the meat of GET /v1/cluster.
type Status struct {
	Self          string             `json:"self"`
	Members       []string           `json:"members"`
	VirtualNodes  int                `json:"virtual_nodes"`
	Ownership     map[string]float64 `json:"ownership"`
	Forwards      int64              `json:"forwards"`
	ForwardErrors int64              `json:"forward_errors"`
	Fallbacks     int64              `json:"fallbacks"`
	ForwardedIn   int64              `json:"forwarded_in"`
	ReplicaHits   int64              `json:"replica_hits"`

	Retries              int64   `json:"retries"`
	RetryBudgetExhausted int64   `json:"retry_budget_exhausted"`
	RetryBudgetTokens    float64 `json:"retry_budget_tokens"`
	Hedges               int64   `json:"hedges"`
	HedgesWon            int64   `json:"hedges_won"`
	HedgesLost           int64   `json:"hedges_lost"`
	HedgesLocal          int64   `json:"hedges_local"`
	HedgeDelayNS         int64   `json:"hedge_delay_ns"` // current adaptive hedge delay
	ForwardCorrupt       int64   `json:"forward_corrupt"`

	Peers []PeerStatus `json:"peers"`
}

// Status snapshots the cluster view.
func (c *Cluster) Status() Status {
	st := Status{
		Self:          c.self,
		Members:       c.Members(),
		VirtualNodes:  len(c.ring.vnodes) / len(c.members),
		Ownership:     c.ring.ownership(),
		Forwards:      c.forwards.Load(),
		ForwardErrors: c.forwardErrors.Load(),
		Fallbacks:     c.fallbacks.Load(),
		ForwardedIn:   c.forwardedIn.Load(),
		ReplicaHits:   c.replicaHits.Load(),

		Retries:              c.retries.Load(),
		RetryBudgetExhausted: c.budgetExhausted.Load(),
		RetryBudgetTokens:    c.budget.balance(),
		Hedges:               c.hedges.Load(),
		HedgesWon:            c.hedgesWon.Load(),
		HedgesLost:           c.hedgesLost.Load(),
		HedgesLocal:          c.hedgesLocal.Load(),
		HedgeDelayNS:         int64(c.hedgeDelay()),
		ForwardCorrupt:       c.forwardCorrupt.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range st.Members {
		p, ok := c.peers[m]
		if !ok {
			continue // self
		}
		st.Peers = append(st.Peers, PeerStatus{
			URL:              p.url,
			Healthy:          p.state == breakerClosed,
			Breaker:          p.state.String(),
			ConsecutiveFails: p.fails,
			LastError:        p.lastError,
			Ejections:        p.ejections,
			Forwards:         p.forwards,
			ForwardErrors:    p.forwardErrors,
		})
	}
	return st
}
