package serve_test

// The resilience suite: the PR 7 fault-handling behaviors end to end —
// corrupt-forward fallback (the regression the fault injector exists to
// pin), deadline-aware 429 admission, request panic recovery, degraded-mode
// shedding, and the chaos property test (a 3-node cluster under seeded
// transport faults answers every query correctly and never deadlocks).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"feasim/internal/fault"
	"feasim/internal/peer"
	"feasim/internal/serve"
	"feasim/internal/solve"
)

// withChaosTransport wraps every node's peer client (probes and forwards) in
// its own deterministic injector, seeded per node.
func withChaosTransport(spec fault.Spec) clusterOpt {
	return func(i int, pc *peer.Config, sc *serve.Config) {
		s := spec
		s.Seed += int64(i)
		pc.Client = &http.Client{Transport: fault.MustNew(s).Transport(nil)}
	}
}

// TestClusterCorruptForwardFallsBack is the satellite-1 regression: a peer
// forward that comes back 200 with a body that does not parse must never be
// echoed to the client — the node counts the corruption against the home's
// breaker and answers with a local solve.
func TestClusterCorruptForwardFallsBack(t *testing.T) {
	nodes := newTestCluster(t, 2, withChaosTransport(fault.Spec{Seed: 42, Corrupt: 1}))
	home, other := homeOf(t, nodes, thresholdEnvelope)

	status, payload := nodes[other].post(t, "/v1/query", thresholdEnvelope)
	if status != http.StatusOK {
		t.Fatalf("corrupt forward must fall back to a correct local answer: status %d (%v)", status, payload)
	}
	ans, _ := payload["answer"].(map[string]any)
	if ans["min_ratio"] != float64(7) {
		t.Fatalf("fallback answer %v", payload["answer"])
	}
	if nodes[other].solves() != 1 {
		t.Errorf("the fallback must solve locally (%d local solves)", nodes[other].solves())
	}
	if nodes[home].solves() != 1 {
		// The home did solve — its 200 was garbled in flight.
		t.Errorf("the home should have solved the forwarded query once (%d)", nodes[home].solves())
	}
	st := nodes[other].cluster.Status()
	if st.ForwardCorrupt < 1 {
		t.Errorf("forward_corrupt %d, want >= 1", st.ForwardCorrupt)
	}
	if st.Fallbacks < 1 {
		t.Errorf("fallbacks %d, want >= 1", st.Fallbacks)
	}
}

// nullAnswerTransport passes peer traffic through unchanged, except that a
// forwarded /v1/query's 200 comes back with its answer replaced by a JSON
// null: a body that parses, names a kind and carries no answer.
type nullAnswerTransport struct{}

func (nullAnswerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/query" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var payload map[string]any
	if err := json.Unmarshal(body, &payload); err != nil {
		return nil, err
	}
	payload["answer"] = nil
	if body, err = json.Marshal(payload); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestClusterNullAnswerForwardFallsBack: a forwarded 200 whose answer is
// null is as corrupt as one that does not parse. It must be neither echoed
// nor adopted as a replica (the next request would replay a zero answer as
// a hit): the node counts forward_corrupt and answers with a local solve.
func TestClusterNullAnswerForwardFallsBack(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, pc *peer.Config, sc *serve.Config) {
		pc.Client = &http.Client{Transport: nullAnswerTransport{}}
	})
	home, other := homeOf(t, nodes, thresholdEnvelope)

	for i := 0; i < 2; i++ {
		status, payload := nodes[other].post(t, "/v1/query", thresholdEnvelope)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%v)", i, status, payload)
		}
		ans, _ := payload["answer"].(map[string]any)
		if ans["min_ratio"] != float64(7) {
			t.Fatalf("request %d: answer %v, want the local solve's", i, payload["answer"])
		}
	}
	if nodes[other].solves() != 1 || nodes[home].solves() != 1 {
		t.Errorf("solves: entry node %d, home %d; want 1 each", nodes[other].solves(), nodes[home].solves())
	}
	st := nodes[other].cluster.Status()
	if st.ForwardCorrupt != 1 || st.Fallbacks != 1 {
		t.Errorf("forward_corrupt %d, fallbacks %d; want 1 each", st.ForwardCorrupt, st.Fallbacks)
	}
	// The one resident entry is the local solve's (one miss); the repeat
	// read it back.
	if cs := nodes[other].srv.Stats().Cache; cs.Entries != 1 || cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("entry node cache %+v, want 1 entry, 1 miss, 1 hit", cs)
	}
}

// TestAdmissionRejectsDoomedRequests pins the 429 path: once the limiter is
// full and the smoothed slot hold time says a new request cannot make its
// deadline, admission rejects it immediately with Retry-After instead of
// queueing it into a certain timeout.
func TestAdmissionRejectsDoomedRequests(t *testing.T) {
	gs := &gatedSolver{name: "gated", release: make(chan struct{})}
	s, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": gs},
		DefaultBackend: "gated",
		MaxInFlight:    1,
		RequestTimeout: 150 * time.Millisecond,
	})
	defer close(gs.release)

	// r1 holds the only slot until its deadline: a 504 that seeds the
	// occupancy estimator with a full-timeout hold.
	if status, _ := post(t, ts.URL+"/v1/query", thresholdEnvelope); status != http.StatusGatewayTimeout {
		t.Fatalf("blocked solve should time out with 504, got %d", status)
	}

	// r2 occupies the slot (and will also run to its deadline).
	done := make(chan int, 1)
	go func() {
		st, _ := post(t, ts.URL+"/v1/query", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 2}`)
		done <- st
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("r2 never occupied the limiter slot")
		}
		time.Sleep(time.Millisecond)
	}

	// r3 arrives with the slot taken and an estimated wait (~ one full
	// timeout) that exceeds its own deadline: rejected up front.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(thresholdEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry a Retry-After hint")
	}
	<-done

	st := s.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
	// The two deadline 504s count as errors; the rejection does not.
	if st.Errors != 2 {
		t.Errorf("errors %d, want 2 (the 429 must not count)", st.Errors)
	}
}

// TestPanicRecovery pins the never-crash contract: an injected solver panic
// costs one 500 (counted in Panics and Errors), the process and the
// listener survive, and panicking batch items fail alone.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": &gatedSolver{name: "gated"}},
		DefaultBackend: "gated",
		Fault:          fault.MustNew(fault.Spec{Seed: 1, SolvePanic: 1}),
	})

	status, payload := post(t, ts.URL+"/v1/query", thresholdEnvelope)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d (%v), want 500", status, payload)
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, "panic") {
		t.Errorf("500 body should say what happened: %v", payload)
	}
	if st := s.Stats(); st.Panics != 1 || st.Errors != 1 {
		t.Errorf("after one panic: panics=%d errors=%d", st.Panics, st.Errors)
	}

	// The server is still alive and serving.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("server must survive a request panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}

	// Batch items panic individually: the batch itself is 200, each item 500.
	batch := `[` + thresholdEnvelope + `, {"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 2}]`
	status, payload = post(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK || payload["failed"] != float64(2) {
		t.Fatalf("panicking batch: status %d failed %v, want 200 with 2 failed items", status, payload["failed"])
	}
	for i, it := range payload["items"].([]any) {
		if item := it.(map[string]any); item["status"] != float64(http.StatusInternalServerError) {
			t.Errorf("item %d: %v, want per-item 500", i, item)
		}
	}
	if st := s.Stats(); st.Panics != 3 {
		t.Errorf("panics %d, want 3 (one query + two batch items)", st.Panics)
	}
	if st := s.Stats(); st.Chaos == nil || st.Chaos.SolvePanic != 3 {
		t.Errorf("chaos stats %+v, want 3 injected panics", st.Chaos)
	}
}

// TestShedToAnalytic pins degraded mode: with every slot busy and shedding
// opted in, a stochastic-backend query is answered by the analytic backend
// immediately, marked degraded and counted, instead of queueing.
func TestShedToAnalytic(t *testing.T) {
	an, err := solve.NewSolver(solve.BackendAnalytic, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs := &gatedSolver{name: "gated", release: make(chan struct{})}
	s, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": gs, solve.BackendAnalytic: an},
		DefaultBackend: "gated",
		MaxInFlight:    1,
		ShedAnalytic:   true,
	})

	// Saturate the single slot with a blocked stochastic solve.
	first := make(chan int, 1)
	go func() {
		st, _ := post(t, ts.URL+"/v1/query", thresholdEnvelope)
		first <- st
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first query never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}

	status, payload := post(t, ts.URL+"/v1/query", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 2}`)
	if status != http.StatusOK {
		t.Fatalf("shed query: status %d (%v)", status, payload)
	}
	if payload["degraded"] != true || payload["backend"] != solve.BackendAnalytic {
		t.Fatalf("shed query must be a degraded analytic answer: %v", payload)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Errorf("sheds %d, want 1", st.Sheds)
	}

	close(gs.release)
	if st := <-first; st != http.StatusOK {
		t.Fatalf("the occupying query should finish normally, got %d", st)
	}
	// An un-saturated server never sheds.
	status, payload = post(t, ts.URL+"/v1/query", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 3}`)
	if status != http.StatusOK || payload["degraded"] == true {
		t.Fatalf("idle server must not shed: status %d %v", status, payload)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Errorf("sheds %d after idle query, want still 1", st.Sheds)
	}
}

// TestClusterChaosProperty is the chaos property test: a 3-node cluster
// whose every peer connection suffers seeded latency, errors, drops,
// corruption and trickle still answers every query correctly from every
// node, and never deadlocks. Seeds are pinned so CI failures reproduce.
func TestClusterChaosProperty(t *testing.T) {
	chaos := fault.Spec{
		Latency:    0.2,
		LatencyMin: time.Millisecond,
		LatencyMax: 5 * time.Millisecond,
		Error:      0.2,
		Drop:       0.1,
		Corrupt:    0.1,
		Trickle:    0.1,
	}
	for _, seed := range []int64{1, 7, 42, 1993} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := chaos
			spec.Seed = seed
			nodes := newTestClusterNoWait(t, 3, withChaosTransport(spec),
				func(i int, pc *peer.Config, sc *serve.Config) {
					// Fast resilience cadence so breakers open, cool down and
					// readmit within the test, and hedges actually fire.
					pc.BreakerCooldown = 50 * time.Millisecond
					pc.RetryBaseDelay = time.Millisecond
					pc.HedgeDelay = 5 * time.Millisecond
				})

			const envelopes, rounds = 8, 3
			var wg sync.WaitGroup
			errs := make(chan error, envelopes*rounds*len(nodes))
			for r := 0; r < rounds; r++ {
				for e := 0; e < envelopes; e++ {
					for n := range nodes {
						wg.Add(1)
						go func(r, e, n int) {
							defer wg.Done()
							env := fmt.Sprintf(`{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": %d}`, e+1)
							status, payload := nodes[n].post(t, "/v1/query", env)
							if status != http.StatusOK {
								errs <- fmt.Errorf("round %d env %d node %d: status %d (%v)", r, e, n, status, payload)
								return
							}
							ans, _ := payload["answer"].(map[string]any)
							if ans["min_ratio"] != float64(7) {
								errs <- fmt.Errorf("round %d env %d node %d: wrong answer %v", r, e, n, payload["answer"])
							}
						}(r, e, n)
					}
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			// The run must actually have exercised the resilience machinery:
			// under these fault rates at least one fallback or retry happens.
			var resil int64
			for _, node := range nodes {
				st := node.cluster.Status()
				resil += st.Fallbacks + st.Retries + st.ForwardCorrupt + st.Hedges
			}
			if resil == 0 {
				t.Error("chaos run exercised no resilience path — faults not injected?")
			}
		})
	}
}
