package peer

// The resilience layer of the answer tier: a per-peer circuit breaker
// (closed → open on failure rate or failure streak, half-open single-trial
// readmit), a cluster-wide retry budget (token bucket — a down home cannot
// trigger a retry storm), and hedged forwards (after an adaptive delay based
// on the p95 of recent forward latencies, a second attempt races the first to
// the next ring owner, or falls back to a local solve).

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The breaker's rolling outcome window per peer: a failure rate of
// DefaultBreakerThreshold over at least half of DefaultBreakerWindow
// outcomes also opens the breaker, catching flappers that never fail
// FailAfter times in a row.
const (
	DefaultBreakerWindow    = 20
	DefaultBreakerThreshold = 0.5
)

// Resilience defaults applied by New for zero Config fields.
const (
	DefaultBreakerCooldown  = 5 * time.Second
	DefaultRetryMax         = 2
	DefaultRetryBudget      = 10
	DefaultRetryBudgetRatio = 0.1
	DefaultRetryBaseDelay   = 10 * time.Millisecond
	DefaultHedgeDelay       = 100 * time.Millisecond
)

// maxRetryDelay caps one exponential-backoff step before jitter.
const maxRetryDelay = 250 * time.Millisecond

// minHedgeDelay floors the adaptive hedge delay so a warm loopback cluster
// cannot degenerate into hedging every forward.
const minHedgeDelay = 1 * time.Millisecond

// hedgeRecomputeEvery is how many latency observations pass between p95
// recomputations (sorting the sample ring on every forward would tax the hot
// path for no precision gain).
const hedgeRecomputeEvery = 8

// ErrHedgeLocal reports that a hedged forward gave up on the network: the
// hedge delay elapsed, no healthy alternative owner exists, and the caller
// should answer with a local solve instead of waiting for the home.
var ErrHedgeLocal = errors.New("peer: hedged forward chose a local solve")

// breakerState is the circuit-breaker position of one remote peer.
type breakerState int

const (
	breakerClosed   breakerState = iota // routable; outcomes recorded
	breakerOpen                         // ejected; forwards refused until cooldown
	breakerHalfOpen                     // one trial in flight decides readmit/reopen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// pushOutcome records one closed-state outcome (true = failure) in the
// peer's rolling window. Caller holds the cluster mutex.
func (p *peerState) pushOutcome(fail bool) {
	if len(p.window) < DefaultBreakerWindow {
		p.window = append(p.window, fail)
		if fail {
			p.windowFails++
		}
		return
	}
	if p.window[p.windowIdx] {
		p.windowFails--
	}
	p.window[p.windowIdx] = fail
	if fail {
		p.windowFails++
	}
	p.windowIdx = (p.windowIdx + 1) % DefaultBreakerWindow
}

// windowTrips reports whether the rolling failure rate justifies opening:
// at least half the window observed and the failure fraction at or above the
// threshold. This is what catches a flapping peer that never fails failAfter
// times in a row. Caller holds the cluster mutex.
func (p *peerState) windowTrips() bool {
	if len(p.window) < DefaultBreakerWindow/2 {
		return false
	}
	return float64(p.windowFails) >= DefaultBreakerThreshold*float64(len(p.window))
}

// clearWindow resets the rolling outcome window (on readmit, so a recovered
// peer starts from a clean slate). Caller holds the cluster mutex.
func (p *peerState) clearWindow() {
	p.window = p.window[:0]
	p.windowIdx = 0
	p.windowFails = 0
}

// Allow reports whether traffic may be routed to member right now, and is
// the only way a forward reaches an open breaker: once the cooldown elapses
// it admits exactly one half-open trial whose outcome (noteSuccess /
// noteFailure) readmits or re-opens the peer. Self is always allowed.
func (c *Cluster) Allow(member string) bool {
	if member == c.self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[member]
	if !ok {
		return false
	}
	switch p.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(p.openedAt) >= c.breakerCooldown {
			p.state = breakerHalfOpen
			p.halfOpenTrial = true
			return true
		}
		return false
	case breakerHalfOpen:
		if !p.halfOpenTrial {
			p.halfOpenTrial = true
			return true
		}
		return false
	}
	return false
}

// retryBudget is a token bucket bounding retries and hedges cluster-wide:
// every logical forward deposits ratio tokens (up to cap), every retry or
// hedge withdraws one. Sustained failure therefore costs at most ~ratio extra
// attempts per forward, while short blips retry freely from the accumulated
// bucket.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	ratio  float64
}

func newRetryBudget(cap, ratio float64) *retryBudget {
	return &retryBudget{tokens: cap, cap: cap, ratio: ratio}
}

func (b *retryBudget) deposit() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

func (b *retryBudget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (b *retryBudget) balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// backoff returns the full-jitter exponential backoff for retry #attempt:
// uniform in [0, min(base·2^attempt, cap)].
func (c *Cluster) backoff(attempt int) time.Duration {
	d := c.retryBaseDelay << uint(attempt)
	if d <= 0 || d > maxRetryDelay {
		d = maxRetryDelay
	}
	c.jitterMu.Lock()
	d = time.Duration(c.jitter.Int63n(int64(d) + 1))
	c.jitterMu.Unlock()
	return d
}

// sleepCtx waits d or until ctx is done; reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// observeForwardLatency feeds one successful forward's duration into the
// hedge-delay estimator: a 64-sample ring whose p95 is folded into an EWMA
// every hedgeRecomputeEvery observations.
func (c *Cluster) observeForwardLatency(d time.Duration) {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if len(c.latSamples) < cap(c.latSamples) {
		c.latSamples = append(c.latSamples, d)
	} else {
		c.latSamples[c.latIdx] = d
		c.latIdx = (c.latIdx + 1) % cap(c.latSamples)
	}
	c.latCount++
	if c.latCount%hedgeRecomputeEvery != 0 || len(c.latSamples) < hedgeRecomputeEvery {
		return
	}
	sorted := append([]time.Duration(nil), c.latSamples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[len(sorted)*95/100]
	if c.hedgeEWMA == 0 {
		c.hedgeEWMA = p95
	} else {
		// 0.7/0.3 smoothing: reactive enough to follow a latency regime
		// change within a few windows, stable enough to ignore one outlier.
		c.hedgeEWMA = time.Duration(0.7*float64(c.hedgeEWMA) + 0.3*float64(p95))
	}
}

// hedgeDelay returns the current adaptive hedge delay: the smoothed p95 of
// recent forward latencies, clamped to [minHedgeDelay, DefaultForwardTimeout/2];
// before enough samples exist, the configured initial delay.
func (c *Cluster) hedgeDelay() time.Duration {
	c.latMu.Lock()
	d := c.hedgeEWMA
	c.latMu.Unlock()
	if d == 0 {
		return c.hedgeInitial
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if max := DefaultForwardTimeout / 2; d > max {
		d = max
	}
	return d
}

// nextOwner walks the ring clockwise from hash h for the first distinct
// member other than exclude whose breaker admits traffic — the hedge target.
// ok is false when that member is this node itself (or nobody qualifies):
// the hedge should then be a local solve.
func (c *Cluster) nextOwner(h uint64, exclude string) (member string, ok bool) {
	n := len(c.ring.vnodes)
	i := sort.Search(n, func(i int) bool { return c.ring.vnodes[i].hash >= h })
	seen := map[string]bool{exclude: true}
	for k := 0; k < n; k++ {
		m := c.ring.vnodes[(i+k)%n].owner
		if seen[m] {
			continue
		}
		seen[m] = true
		if m == c.self {
			return "", false
		}
		if c.Healthy(m) {
			return m, true
		}
	}
	return "", false
}

// ForwardHedged forwards to the home member like Forward, but arms a hedge:
// if no answer arrives within the adaptive hedge delay, a second forward
// races the first to the next ring owner (the loop-guard header makes it
// answer locally, so no routing loop), or — when no healthy alternative
// exists — the hedge is ErrHedgeLocal and the caller solves locally. The
// first success wins and the loser is cancelled without a health penalty.
// Hedges withdraw from the same retry budget that bounds retries.
func (c *Cluster) ForwardHedged(ctx context.Context, hash uint64, home, path, rawQuery string, body []byte) (status int, respBody []byte, err error) {
	if c.hedgeDisabled {
		return c.Forward(ctx, home, path, rawQuery, body)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		status int
		body   []byte
		member string
		err    error
	}
	ch := make(chan result, 2)
	launch := func(member string) {
		go func() {
			st, data, ferr := c.Forward(hctx, member, path, rawQuery, body)
			ch <- result{status: st, body: data, member: member, err: ferr}
		}()
	}
	launch(home)

	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	pending := 1
	hedged := false
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if hedged {
					if r.member == home {
						c.hedgesLost.Add(1)
					} else {
						c.hedgesWon.Add(1)
					}
				}
				cancel() // the loser is cancelled, not failed
				return r.status, r.body, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return 0, nil, firstErr
			}
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			next, remote := c.nextOwner(hash, home)
			if !c.budget.withdraw() {
				c.budgetExhausted.Add(1)
				continue // over budget: keep waiting on the home alone
			}
			c.hedges.Add(1)
			if !remote {
				c.hedgesLocal.Add(1)
				cancel()
				return 0, nil, ErrHedgeLocal
			}
			pending++
			launch(next)
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
}

// NoteCorrupt records a 200 forward response whose body failed to parse:
// counted like any other peer failure (the home is serving garbage) so the
// breaker sees it, plus its own counter for observability.
func (c *Cluster) NoteCorrupt(member string) {
	c.forwardCorrupt.Add(1)
	c.noteFailure(member, "forward body failed to parse")
}

// jitterSource builds the backoff jitter RNG. Jitter does not need to be
// reproducible (chaos determinism lives in internal/fault), only cheap and
// race-free under the cluster's own mutex.
func jitterSource() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
