package timeline

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"feasim/internal/rng"
)

// The property suite for the one segment walker: random fractional
// profiles, every cursor step moving forward, launch offsets checked
// against exact rational boundaries and the quasi-static E[job] against a
// high-precision reference walk.

// randomProfile draws 1–8 segments with durations log-uniform in
// (1e-3, 1e3] and utilizations in [0, 0.8).
func randomProfile(rnd *rand.Rand) Profile {
	p := Profile{Cyclic: rnd.IntN(2) == 0, Segments: make([]Segment, 1+rnd.IntN(8))}
	for i := range p.Segments {
		p.Segments[i] = Segment{Name: string(rune('a' + i)), Duration: 1e3 * math.Pow(1e-6, rnd.Float64()), Util: 0.8 * rnd.Float64()}
	}
	return p
}

// exactBoundaries lists the profile's segment boundaries strictly inside
// (t0, t1), computed in exact rational arithmetic from the float64
// durations; a trace's last boundary is the end of the recording.
func exactBoundaries(p Profile, t0, t1 float64) []*big.Rat {
	lo, hi := new(big.Rat).SetFloat64(t0), new(big.Rat).SetFloat64(t1)
	prefix := []*big.Rat{new(big.Rat)}
	for _, seg := range p.Segments {
		prefix = append(prefix, new(big.Rat).Add(prefix[len(prefix)-1], new(big.Rat).SetFloat64(seg.Duration)))
	}
	total := prefix[len(prefix)-1]
	var out []*big.Rat
	base := new(big.Rat)
	if p.Cyclic {
		k, _ := new(big.Rat).Quo(lo, total).Float64()
		base.Mul(total, new(big.Rat).SetFloat64(math.Max(0, math.Floor(k)-1)))
	}
	for {
		for _, pre := range prefix[1:] {
			b := new(big.Rat).Add(base, pre)
			if b.Cmp(hi) >= 0 {
				return out
			}
			if b.Cmp(lo) > 0 {
				out = append(out, b)
			}
		}
		if !p.Cyclic {
			return out
		}
		base.Add(base, total)
	}
}

// referenceEJob is the quasi-static walk of a job launched at t0 in 256-bit
// floating point over exact boundaries, with the walker's own per-segment
// stationary E[job] values.
func referenceEJob(t *testing.T, qs *QuasiStatic, t0 float64) float64 {
	t.Helper()
	const prec = 256
	num := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	p := qs.Profile
	n := len(p.Segments)
	prefix := []*big.Float{num(0)}
	for _, seg := range p.Segments {
		prefix = append(prefix, num(0).Add(prefix[len(prefix)-1], num(seg.Duration)))
	}
	total := prefix[n]
	start := num(t0)
	base := num(0)
	if p.Cyclic {
		k, _ := num(0).Quo(start, total).Float64()
		base.Mul(total, num(math.Floor(k)))
	}
	// Locate the launch segment: the first whose end lies after t0.
	i := 0
	end := func() *big.Float {
		if !p.Cyclic && i >= n {
			return nil // the hold segment never ends
		}
		return num(0).Add(base, prefix[i+1])
	}
	step := func() {
		if i++; p.Cyclic && i == n {
			i = 0
			base.Add(base, total)
		}
	}
	for e := end(); e != nil && e.Cmp(start) <= 0; e = end() {
		step()
	}
	now, frac := num(t0), num(1)
	for {
		e, err := qs.stationaryEJob(p.Segments[min(i, n-1)].Util)
		if err != nil {
			t.Fatal(err)
		}
		need := num(0).Mul(frac, num(e))
		stop := end()
		span := num(0)
		if stop != nil {
			span.Sub(stop, now)
		}
		if stop == nil || need.Cmp(span) <= 0 {
			got, _ := need.Add(need, now).Sub(need, start).Float64()
			return got
		}
		frac.Sub(frac, span.Quo(span, num(e)))
		now = stop
		step()
	}
}

// TestProfileWalkProperties runs seeded random fractional profiles through
// every walk.
func TestProfileWalkProperties(t *testing.T) {
	rnd := rand.New(rand.NewPCG(17, 1993))
	var worst float64
	for c := 0; c < 300; c++ {
		p := randomProfile(rnd)
		prefix := p.prefixSums()
		total := prefix[len(p.Segments)]
		start := 0.0
		if rnd.IntN(2) == 0 {
			start = 3 * total * rnd.Float64()
		}
		horizon := total * (0.5 + 4*rnd.Float64())

		// Every cursor step moves forward.
		cur := seek(prefix, p.Cyclic, start)
		if !(cur.end > start) {
			t.Fatalf("case %d: seek(%v) ends at %v", c, start, cur.end)
		}
		for s := 0; s < 200 && !math.IsInf(cur.end, 1); s++ {
			prev := cur.end
			cur.next()
			if !(cur.end > prev) {
				t.Fatalf("case %d step %d: end %v after %v", c, s, cur.end, prev)
			}
		}

		// One launch per boundary inside the horizon, each at the boundary.
		want := exactBoundaries(p, start, start+horizon)
		near := func(b *big.Rat, x float64) bool {
			f, _ := b.Float64()
			return math.Abs(f-x) <= 1e-12*math.Max(1, math.Abs(f))
		}
		if len(want) > 0 && near(want[len(want)-1], start+horizon) {
			continue // a boundary within rounding of the horizon's end
		}
		got, err := p.EpochStarts(start, horizon, 0)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if got[0] != start || len(got)-1 != len(want) {
			t.Fatalf("case %d (%+v): %d launch offsets from %v, want %d boundaries + start", c, p, len(got), start, len(want))
		}
		for i, b := range want {
			if !near(b, got[i+1]) {
				t.Fatalf("case %d: offset %d at %v, boundary at %v", c, i+1, got[i+1], b.FloatString(18))
			}
		}

		// The quasi-static walk matches the high-precision reference.
		qs, err := NewQuasiStatic(p, 400, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, t0 := range got[:min(3, len(got))] {
			ep, err := qs.At(t0)
			if err != nil {
				t.Fatalf("case %d: At(%v): %v", c, t0, err)
			}
			ref := referenceEJob(t, qs, t0)
			rel := math.Abs(ep.EJob-ref) / ref
			if rel > 1e-12 {
				t.Fatalf("case %d (%+v): E[job] at %v is %v, reference %v (rel %.3g)", c, p, t0, ep.EJob, ref, rel)
			}
			worst = math.Max(worst, rel)
		}
	}
	t.Logf("worst relative E[job] deviation %.3g", worst)
}

// FuzzProfileWalk drives the walker with arbitrary 1–8 segment profiles,
// cyclic or trace, durations in (1e-3, 1e3], and any launch start and
// horizon folded into [0, 1e3) and [0, 1e4): steps must move forward,
// EpochStarts must stay within its cap, and the quasi-static and replayed
// answers must be finite, with the replayed task's record adding up.
func FuzzProfileWalk(f *testing.F) {
	f.Add([]byte{0x19, 0x99, 0x20, 0x33, 0x33, 0x60, 0x4c, 0xcc, 0x90}, true, 0.0, 1.2)
	f.Add([]byte{0xff, 0xff, 0x30, 0x00, 0x00, 0x00}, false, 500.0, 0.0)
	f.Add([]byte{0x80, 0x00, 0x10}, true, 37.5, 9999.0)
	f.Fuzz(func(t *testing.T, data []byte, cyclic bool, start, horizon float64) {
		n := min(8, len(data)/3)
		if n == 0 || math.IsNaN(start) || math.IsInf(start, 0) || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
			t.Skip()
		}
		p := Profile{Cyclic: cyclic, Segments: make([]Segment, n)}
		for i := range p.Segments {
			x := float64(uint16(data[3*i])<<8|uint16(data[3*i+1])) + 1 // (0, 65536]
			p.Segments[i] = Segment{Duration: 1e-3 * math.Pow(1e6, x/65536), Util: 0.8 * float64(data[3*i+2]) / 256}
		}
		start, horizon = math.Mod(math.Abs(start), 1e3), math.Mod(math.Abs(horizon), 1e4)

		prefix := p.prefixSums()
		c := seek(prefix, cyclic, start)
		if !(c.end > start) {
			t.Fatalf("%+v: seek(%v) ends at %v", p, start, c.end)
		}
		for s := 0; s < 1000 && !math.IsInf(c.end, 1); s++ {
			prev := c.end
			if c.next(); !(c.end > prev) {
				t.Fatalf("%+v: step %d from %v to %v", p, s, prev, c.end)
			}
		}

		starts, err := p.EpochStarts(start, horizon, 0)
		if err != nil {
			return // over the cap: refused, not walked
		}
		if len(starts) > MaxEpochs {
			t.Fatalf("%d launch offsets exceed the cap", len(starts))
		}
		for i := 1; i < len(starts); i++ {
			if !(starts[i] > starts[i-1]) {
				t.Fatalf("%+v: offsets %v then %v", p, starts[i-1], starts[i])
			}
		}

		qs, err := NewQuasiStatic(p, 400, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewPhasedStation("ws", p, 10, rng.NewStream(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, t0 := range starts[:min(3, len(starts))] {
			if ep, err := qs.At(t0); err == nil && (math.IsNaN(ep.EJob) || math.IsInf(ep.EJob, 0) || math.IsNaN(ep.MeanUtil)) {
				t.Fatalf("%+v: At(%v) = %+v", p, t0, ep)
			}
			rec := st.RunTaskAt(t0, 10)
			if math.IsNaN(rec.Elapsed) || math.IsInf(rec.Elapsed, 0) {
				t.Fatalf("%+v: RunTaskAt(%v) = %+v", p, t0, rec)
			}
			if d := math.Abs(rec.Elapsed - (rec.Demand + rec.OwnerTime)); d > 1e-9*rec.Elapsed {
				t.Fatalf("%+v: RunTaskAt(%v) record off by %v: %+v", p, t0, d, rec)
			}
		}
	})
}
