// Package cluster is the virtual non-dedicated workstation cluster on which
// the paper's experiment (Section 4: PVM on 1-12 Sun ELC Sparcstations)
// is reproduced.
//
// Each Station models one workstation: a CPU shared between an owner
// workload (preemptive priority) and one niced parallel task. Time is
// virtual, per station. This matches the paper's measurement methodology
// exactly: the experiment records each task's own computation interval and
// reports the maximum, "to isolate the impact of workstation owner process
// interference" — message-passing overhead is deliberately excluded, so
// stations do not need a shared clock.
//
// Owner behaviour is the paper's: alternate thinking and computing, with
// configurable think/demand distributions. Unlike the analytic model, think
// time here elapses in wall-clock (virtual) time — owners keep living while
// the parallel task is suspended — which is the "real system" the model is
// an optimistic bound for.
package cluster

import (
	"fmt"
	"math"
	"sync"

	"feasim/internal/rng"
)

// StationParams configures the owner workload of one virtual workstation.
type StationParams struct {
	// OwnerThink is the owner's think-time distribution (virtual seconds).
	OwnerThink rng.Dist
	// OwnerDemand is the owner's burst service demand distribution.
	OwnerDemand rng.Dist
	// StationaryStart, when true, starts each task against an owner process
	// in steady state: with probability equal to the owner utilization the
	// task arrives mid-burst and waits out a residual. When false the owner
	// always begins thinking at task start (the analytic model's optimistic
	// convention).
	StationaryStart bool
}

// Validate checks the parameters.
func (p StationParams) Validate() error {
	if p.OwnerThink == nil || p.OwnerDemand == nil {
		return fmt.Errorf("cluster: station needs owner think and demand distributions")
	}
	return nil
}

// Utilization is the owner's long-run CPU share E[demand]/(E[think]+E[demand]).
func (p StationParams) Utilization() float64 {
	d, z := p.OwnerDemand.Mean(), p.OwnerThink.Mean()
	if d <= 0 {
		return 0
	}
	return d / (z + d)
}

// TaskRecord is one task execution on one station — the quantity the
// paper's experiment reports ("each task record[s] the system time when it
// started computation and ... when completing computation").
type TaskRecord struct {
	Station   string
	Demand    float64 // pure compute demand
	Elapsed   float64 // wall (virtual) time from start to completion
	OwnerTime float64 // interference absorbed from owner bursts
	Bursts    int     // number of owner bursts that hit the task
}

// Station is one virtual workstation.
type Station struct {
	name   string
	params StationParams
	stream *rng.Stream

	mu sync.Mutex // guards stream
}

// NewStation builds a station with its own random stream.
func NewStation(name string, params StationParams, stream *rng.Stream) (*Station, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Station{name: name, params: params, stream: stream}, nil
}

// Name returns the station's host name.
func (s *Station) Name() string { return s.name }

// Params returns the configured owner workload.
func (s *Station) Params() StationParams { return s.params }

// RunTask executes a parallel task of the given compute demand to
// completion and returns its timing record: the owner/task interleaving
// walk. Safe for concurrent use; each call simulates an independent task
// arrival.
func (s *Station) RunTask(demand float64) TaskRecord {
	if !(demand >= 0) || math.IsInf(demand, 1) {
		panic(fmt.Sprintf("cluster: task demand must be finite and >= 0, got %v", demand))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := TaskRecord{Station: s.name, Demand: demand}
	now := 0.0
	remaining := demand

	// Owner state at task arrival.
	nextArrival := 0.0
	if s.params.StationaryStart && s.stream.Float64() < s.params.Utilization() {
		// Arrived mid-burst: wait out a residual. Sampling burst×U(0,1) is
		// the exact equilibrium residual for deterministic bursts and a
		// serviceable approximation otherwise.
		resid := s.params.OwnerDemand.Sample(s.stream) * s.stream.Float64()
		now += resid
		rec.OwnerTime += resid
		rec.Bursts++
		nextArrival = now + s.params.OwnerThink.Sample(s.stream)
	} else {
		// Owner thinking; geometric/exponential thinks are memoryless so a
		// fresh sample is the exact residual.
		nextArrival = now + s.params.OwnerThink.Sample(s.stream)
	}

	for remaining > 0 {
		if nextArrival <= now {
			// Owner bursts in; task is preempted for the whole burst.
			// Zero-length bursts (a dedicated owner) are not counted.
			b := s.params.OwnerDemand.Sample(s.stream)
			now += b
			rec.OwnerTime += b
			if b > 0 {
				rec.Bursts++
			}
			nextArrival = now + s.params.OwnerThink.Sample(s.stream)
			continue
		}
		slice := nextArrival - now
		if slice > remaining {
			slice = remaining
		}
		now += slice
		remaining -= slice
	}

	rec.Elapsed = now
	return rec
}
