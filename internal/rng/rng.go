// Package rng provides seedable, splittable pseudo-random streams and the
// random-variate distributions used throughout the feasibility study.
//
// The paper's base model needs only a geometric owner think time and a
// deterministic owner service demand, but its stated future work (Section
// 2.2: "we intend to use our simulation ... to explore other service demand
// distributions") calls for higher-variance distributions; exponential,
// Erlang, hyperexponential and Pareto variates are provided for that purpose.
//
// All randomness flows through Stream so that every simulation in the
// repository is reproducible from a single root seed. Streams are cheap and
// splittable: deriving per-workstation child streams keeps stations
// statistically independent without sharing state across goroutines.
package rng

import (
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random stream (PCG-backed).
// A Stream is not safe for concurrent use; Split child streams instead.
type Stream struct {
	r    *rand.Rand
	seed uint64
}

// NewStream returns a stream seeded from the given root seed.
func NewStream(seed uint64) *Stream {
	return &Stream{
		r:    rand.New(rand.NewPCG(splitmix(seed), splitmix(seed^0x9e3779b97f4a7c15))),
		seed: seed,
	}
}

// Split derives the i-th independent child stream. Children with distinct
// indexes (or from distinct parents) produce statistically independent
// sequences, which we rely on for per-workstation owner processes.
func (s *Stream) Split(i uint64) *Stream {
	return NewStream(s.childSeed(i))
}

// SplitSeed returns Split(i).Uint64(), the first draw of the i-th child,
// without allocating the child stream: the per-point seed of a sweep or
// search.
func (s *Stream) SplitSeed(i uint64) uint64 {
	seed := s.childSeed(i)
	var pcg rand.PCG
	pcg.Seed(splitmix(seed), splitmix(seed^0x9e3779b97f4a7c15))
	return pcg.Uint64()
}

// childSeed is the seed of the i-th child stream.
func (s *Stream) childSeed(i uint64) uint64 {
	return splitmix(s.seed+0x9e3779b97f4a7c15*(i+1)) ^ (i + 1)
}

// Seed reports the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// IntN returns a uniform int in [0, n).
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// splitmix is the SplitMix64 output function; used only for seed derivation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
