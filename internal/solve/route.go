package solve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// Multi-node routing support: the PR 4/5 answer-cache key doubles as the
// cluster routing key. RouteHash renders that identity as a hash every node
// computes identically, so a consistent-hash ring built over it assigns each
// answer exactly one home node fleet-wide; ParseAnswer turns a peer's wire
// answer back into the typed form so forwarded answers can live in the local
// cache as hot-entry replicas.

// RouteHash returns a process-independent 64-bit hash of the answer-cache
// identity of (backend, q) — the key the multi-node answer tier routes on.
// Unlike the cache's internal shard hash (seeded per process, deliberately
// unstable), RouteHash is a pure function of the key's content: every node of
// a cluster computes the same value for the same query, which is what lets a
// consistent-hash ring agree on the key's home node without coordination.
// ok is false when the query has no stable identity (an analytic query
// outside the discrete model, or an unmarshalable query type); such queries
// cannot be routed and must be answered locally.
func RouteHash(backend string, q Query) (uint64, bool) {
	key, ok := answerCacheKey(backend, q)
	if !ok {
		return 0, false
	}
	h := fnv.New64a()
	var buf [8]byte
	writeField := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	writeBits := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeField(key.backend)
	writeField(key.key.kind)
	writeField(key.key.extra)
	s := key.key.scen
	writeBits(math.Float64bits(s.j))
	writeBits(uint64(s.w))
	writeBits(math.Float64bits(s.o))
	writeBits(math.Float64bits(s.p))
	writeBits(math.Float64bits(s.deadline))
	writeBits(math.Float64bits(s.target))
	return h.Sum64(), true
}

// ParseAnswer decodes an answer body of the given query kind — the inverse
// of marshaling an Answer, used to adopt a peer's wire answer as a typed
// cache entry. Decoding is deliberately lenient (no unknown-field rejection):
// a cluster mid-upgrade may receive answers carrying fields this node does
// not know yet, and dropping them beats refusing the answer. Anything but a
// JSON object is refused: json.Unmarshal takes a null as a no-op, and a
// zero answer adopted from a peer's "answer": null would be echoed and
// replayed as if solved.
func ParseAnswer(kind string, data []byte) (Answer, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, fmt.Errorf("solve: bad %q answer: not a JSON object", kind)
	}
	var (
		a   Answer
		err error
	)
	switch kind {
	case KindReport:
		var v ReportAnswer
		err = json.Unmarshal(data, &v)
		a = v
	case KindThreshold:
		var v ThresholdAnswer
		err = json.Unmarshal(data, &v)
		a = v
	case KindPartition:
		var v PartitionAnswer
		err = json.Unmarshal(data, &v)
		a = v
	case KindDistribution:
		var v DistributionAnswer
		err = json.Unmarshal(data, &v)
		a = v
	case KindScaled:
		var v ScaledAnswer
		err = json.Unmarshal(data, &v)
		a = v
	case KindTimeline:
		var v TimelineAnswer
		err = json.Unmarshal(data, &v)
		a = v
	default:
		return nil, fmt.Errorf("solve: unknown answer kind %q (want one of %v)", kind, QueryKinds())
	}
	if err != nil {
		return nil, fmt.Errorf("solve: bad %q answer: %w", kind, err)
	}
	return a, nil
}
