package peer

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// The consistent-hash ring. Members are node URLs; each member projects
// DefaultVirtualNodes points onto the 64-bit ring (fnv64a of "url#i"), and a key
// hash is owned by the first virtual node clockwise from it. Every node
// builds the ring from the same static member list, so all nodes agree on
// every key's home without coordination — the property the answer tier
// routes on. Health is deliberately NOT part of ring construction: ejecting
// a peer must not reshuffle ownership of the rest of the keyspace, so an
// unhealthy home is handled by the caller falling back to a local solve.

// DefaultVirtualNodes is the per-member virtual node count. 128 points per
// member keeps the ownership imbalance of a small static cluster within a
// few percent.
const DefaultVirtualNodes = 128

type vnode struct {
	hash  uint64
	owner string // member URL
}

type ring struct {
	vnodes []vnode // sorted by hash
}

// mix64 is the splitmix64 finalizer. FNV-1a over member URLs that share a
// long common prefix (every vnode label is "<url>#<i>") leaves the high
// bits — the ones the sort orders on — strongly correlated, clumping a
// member's virtual nodes into long contiguous arcs: ownership imbalance
// far beyond the few-percent target, and arcs so long a vnode often has no
// *other*-member successor for the hedge to race. The finalizer
// decorrelates the bits; it is deterministic, so every node still builds
// the identical ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func buildRing(members []string) (ring, error) {
	r := ring{vnodes: make([]vnode, 0, len(members)*DefaultVirtualNodes)}
	for _, m := range members {
		for i := 0; i < DefaultVirtualNodes; i++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", m, i)
			r.vnodes = append(r.vnodes, vnode{hash: mix64(h.Sum64()), owner: m})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Owner tiebreak on (vanishingly rare) hash collisions keeps the sort —
		// and therefore routing — identical on every node.
		return a.owner < b.owner
	})
	if len(r.vnodes) == 0 {
		return ring{}, fmt.Errorf("peer: ring has no members")
	}
	return r, nil
}

// owner returns the member owning hash h: the first virtual node at or after
// h, wrapping past the top of the ring to the first virtual node.
func (r ring) owner(h uint64) string {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return r.vnodes[i].owner
}

// ownership returns each member's fraction of the keyspace — the summed arc
// lengths of its virtual nodes' segments over 2^64. Diagnostic only (the
// /v1/cluster payload); routing never reads it.
func (r ring) ownership() map[string]float64 {
	frac := make(map[string]float64)
	n := len(r.vnodes)
	if n == 0 {
		return frac
	}
	const whole = float64(math.MaxUint64) + 1
	for i, v := range r.vnodes {
		prev := r.vnodes[(i-1+n)%n].hash
		// Segment (prev, v.hash] owned by v.owner; the wrap segment spans
		// the top of the ring.
		arc := v.hash - prev // uint64 arithmetic wraps correctly
		frac[v.owner] += float64(arc) / whole
	}
	return frac
}
