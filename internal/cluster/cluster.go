package cluster

import (
	"fmt"
	"math"

	"feasim/internal/rng"
)

// Cluster is a set of virtual non-dedicated workstations.
type Cluster struct {
	stations []*Station
}

// New builds a homogeneous cluster of n stations sharing params, with
// per-station independent random streams derived from seed.
func New(n int, params StationParams, seed uint64) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one station, got %d", n)
	}
	ps := make([]StationParams, n)
	for i := range ps {
		ps[i] = params
	}
	return NewHeterogeneous(ps, seed)
}

// NewHeterogeneous builds a cluster with per-station owner workloads.
func NewHeterogeneous(params []StationParams, seed uint64) (*Cluster, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("cluster: need at least one station")
	}
	root := rng.NewStream(seed)
	c := &Cluster{}
	for i, p := range params {
		st, err := NewStation(fmt.Sprintf("elc%d", i), p, root.Split(uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("cluster: station %d: %w", i, err)
		}
		c.stations = append(c.stations, st)
	}
	return c, nil
}

// SunELCParams reproduces the paper's measured environment: "the only
// interference is from more trivial usage such as editing files, reading
// mail, news, etc." at a measured 3% owner utilization. Owner bursts of o
// virtual seconds with geometric thinks tuned to the target utilization.
func SunELCParams(o, util float64) (StationParams, error) {
	if util < 0 || util >= 1 {
		return StationParams{}, fmt.Errorf("cluster: utilization must be in [0,1), got %v", util)
	}
	p := StationParams{
		OwnerDemand:     rng.Deterministic{V: o},
		StationaryStart: true,
	}
	if util == 0 {
		// Dedicated: the owner never requests the CPU.
		p.OwnerDemand = rng.Deterministic{V: 0}
		p.OwnerThink = rng.Deterministic{V: math.Inf(1)}
		return p, nil
	}
	// U = O/(1/P + O)  →  1/P = O(1-U)/U.
	prob := util / (o * (1 - util))
	if prob > 1 {
		return StationParams{}, fmt.Errorf("cluster: utilization %v unreachable with burst %v at unit granularity", util, o)
	}
	p.OwnerThink = rng.NewGeometric(prob)
	return p, nil
}

// Size is the number of stations.
func (c *Cluster) Size() int { return len(c.stations) }

// Station returns station i.
func (c *Cluster) Station(i int) (*Station, error) {
	if i < 0 || i >= len(c.stations) {
		return nil, fmt.Errorf("cluster: no station %d in a %d-station cluster", i, len(c.stations))
	}
	return c.stations[i], nil
}
