package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// memoized reports whether the memo holds env.
func (p *parseCache) memoized(env []byte) bool {
	m := p.m.Load()
	if m == nil {
		return false
	}
	_, ok := m.Load(string(env))
	return ok
}

// TestParseCacheAdmitsOnSecondSighting: the first parse of an envelope
// leaves only a fingerprint, the second memoizes it, and later parses are
// served from the memo with the same query. Parse errors are never stored,
// however often they repeat.
func TestParseCacheAdmitsOnSecondSighting(t *testing.T) {
	var p parseCache
	env := []byte(`{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 1}`)
	first, err := p.parse(env)
	if err != nil {
		t.Fatal(err)
	}
	if p.memoized(env) {
		t.Fatal("first sighting was memoized")
	}
	second, err := p.parse(env)
	if err != nil {
		t.Fatal(err)
	}
	if !p.memoized(env) {
		t.Fatal("second sighting was not memoized")
	}
	third, err := p.parse(env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(second, third) {
		t.Errorf("parses differ: %+v, %+v, %+v", first, second, third)
	}
	if n := p.entries.Load(); n != 1 {
		t.Errorf("%d entries counted, want 1", n)
	}

	bad := []byte(`{"kind": "threshold", "w": 10, "bogus": 1}`)
	for i := 0; i < 3; i++ {
		if _, err := p.parse(bad); err == nil {
			t.Fatal("malformed envelope parsed")
		}
	}
	if p.memoized(bad) {
		t.Error("a parse error was memoized")
	}

	// An envelope whose first sighting has left the ring is a first
	// sighting again.
	late := []byte(`{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 2}`)
	if _, err := p.parse(late); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parseSeenSlots; i++ {
		p.seenBefore(uint64(2*i + 2)) // fingerprints of other first sightings
	}
	if _, err := p.parse(late); err != nil {
		t.Fatal(err)
	}
	if p.memoized(late) {
		t.Error("an envelope was memoized after its first sighting left the ring")
	}
}

// TestParseCacheConcurrent: goroutines parsing a few envelopes at once all
// get the right query and the memo ends up holding each of them (run under
// the race detector in CI).
func TestParseCacheConcurrent(t *testing.T) {
	var p parseCache
	envs := make([][]byte, 8)
	for i := range envs {
		envs[i] = []byte(fmt.Sprintf(`{"kind": "threshold", "w": %d, "o": 10, "util": 0.1, "target_eff": 0.8}`, 2+i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				env := envs[(g+i)%len(envs)]
				if _, err := p.parse(env); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, env := range envs {
		if !p.memoized(env) {
			t.Errorf("%s was never memoized", env)
		}
	}
}
