package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// TestAnalyzeFleetHomogeneousCollapse pins the degenerate-fleet guarantee:
// all p_i equal at reference speed reproduces the homogeneous analytic
// answer bit-exactly, even when the stations arrive as split groups.
func TestAnalyzeFleetHomogeneousCollapse(t *testing.T) {
	p := Params{J: 400, W: 4, O: 10, P: 0.02}
	want, err := Analyze(p.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	for _, stations := range [][]FleetStation{
		{{P: 0.02, Count: 4}},
		{{P: 0.02, Count: 1}, {P: 0.02, Count: 3}},
		{{P: 0.02, Speed: 1, Count: 2}, {P: 0.02, Count: 2}},
	} {
		got, err := Analyze(Fleet{J: 400, O: 10, Stations: stations})
		if err != nil {
			t.Fatal(err)
		}
		if got.EJob != want.EJob || got.ETask != want.ETask || got.U != want.U ||
			got.EMaxBursts != want.EMaxBursts || got.EBurstsPerTsk != want.EBurstsPerTsk ||
			got.WeightedEfficiency != want.WeightedEfficiency {
			t.Fatalf("stations %v: fleet answer %+v not bit-exact vs homogeneous %+v", stations, got, want)
		}
	}
}

// TestAnalyzeFleetBruteForce cross-checks the breakpoint-sweep E[job]
// against a dense brute-force evaluation of P(max ≤ x) on a small mixed
// fleet.
func TestAnalyzeFleetBruteForce(t *testing.T) {
	f := Fleet{J: 120, O: 5, Stations: []FleetStation{
		{P: 0.05, Count: 2},
		{P: 0.20, Count: 1},
		{P: 0.10, Speed: 2, Count: 1},
	}}
	res, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force: enumerate every lattice point of every group's full
	// support and difference the exact product of full-support cdfs.
	tRef := f.TaskDemand()
	type grp struct {
		t   float64
		n   int
		c   int
		bin Binomial
	}
	var groups []grp
	for _, s := range f.Canonical() {
		eff := tRef / s.Speed
		n := int(math.Round(eff))
		groups = append(groups, grp{t: eff, n: n, c: s.Count, bin: Binomial{N: n, P: s.P}})
	}
	var pts []float64
	for _, g := range groups {
		for k := 0; k <= g.n; k++ {
			pts = append(pts, g.t+float64(k)*f.O)
		}
	}
	cdfAt := func(g grp, x float64) float64 {
		k := int(math.Floor((x - g.t) / f.O * (1 + 1e-12)))
		if k < 0 {
			return 0
		}
		if k > g.n {
			k = g.n
		}
		var c float64
		for i := 0; i <= k; i++ {
			c += g.bin.PMF(i)
		}
		if c > 1 {
			c = 1
		}
		return c
	}
	var want, prev float64
	seen := map[float64]bool{}
	var sorted []float64
	for _, x := range pts {
		if !seen[x] {
			seen[x] = true
			sorted = append(sorted, x)
		}
	}
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for _, x := range sorted {
		g := 1.0
		for _, gr := range groups {
			g *= math.Pow(cdfAt(gr, x), float64(gr.c))
		}
		want += x * (g - prev)
		prev = g
	}
	if rel := math.Abs(res.EJob-want) / want; rel > 1e-9 {
		t.Fatalf("EJob = %v, brute force %v (rel %g)", res.EJob, want, rel)
	}
}

// TestFleetSpeedEquivalence: a uniformly-sped fleet is the homogeneous
// model at the scaled task demand.
func TestFleetSpeedEquivalence(t *testing.T) {
	res, err := Analyze(Fleet{J: 800, O: 10, Stations: []FleetStation{{P: 0.05, Speed: 2, Count: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	// t_i = (800/4)/2 = 100: same per-task law as the homogeneous fleet
	// with J = 400.
	want, err := Analyze(Params{J: 400, W: 4, O: 10, P: 0.05}.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.EJob-want.EJob) / want.EJob; rel > 1e-9 {
		t.Fatalf("speed-2 fleet EJob = %v, homogeneous scaled EJob = %v (rel %g)", res.EJob, want.EJob, rel)
	}
	if math.Abs(res.ETask-want.ETask) > 1e-9 {
		t.Fatalf("speed-2 fleet ETask = %v, want %v", res.ETask, want.ETask)
	}
}

func TestFleetJobTimeDistribution(t *testing.T) {
	f := Fleet{J: 400, O: 10, Stations: []FleetStation{
		{P: 0.03, Count: 2},
		{P: 0.08, Count: 2},
	}}
	d, err := JobTimeDistribution(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(d.Mean() - res.EJob); diff > 1e-9 {
		t.Fatalf("distribution mean %v != EJob %v", d.Mean(), res.EJob)
	}
	// The heterogeneous max is stochastically above each group's own max:
	// its mean exceeds the homogeneous job time of the better group alone.
	better, err := Analyze(Params{J: 400, W: 4, O: 10, P: 0.03}.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	if res.EJob < better.EJob {
		t.Fatalf("mixed-fleet EJob %v below all-best homogeneous %v", res.EJob, better.EJob)
	}
}

func TestFleetUtilization(t *testing.T) {
	f := Fleet{J: 400, O: 10, Stations: []FleetStation{
		{P: 0.05, Count: 1},
		{P: 0, Count: 1},
	}}
	u1 := 10.0 / (10 + 1/0.05)
	if got := f.Utilization(); math.Abs(got-u1/2) > 1e-15 {
		t.Fatalf("fleet utilization %v, want %v", got, u1/2)
	}
}

func TestFleetValidation(t *testing.T) {
	for _, f := range []Fleet{
		{J: 0, O: 10, Stations: []FleetStation{{P: 0.1, Count: 1}}},
		{J: 100, O: -1, Stations: []FleetStation{{P: 0.1, Count: 1}}},
		{J: 100, O: 10},
		{J: 100, O: 10, Stations: []FleetStation{{P: 1.5, Count: 1}}},
		{J: 100, O: 10, Stations: []FleetStation{{P: 0.1, Count: 0}}},
		{J: 100, O: 10, Stations: []FleetStation{{P: 0.1, Speed: -2, Count: 1}}},
		// Effective demand below one unit at speed 200.
		{J: 100, O: 10, Stations: []FleetStation{{P: 0.1, Speed: 200, Count: 1}}},
	} {
		if err := f.Validate(); err == nil {
			t.Fatalf("fleet %+v must be rejected", f)
		}
	}
}

// TestTileFleet checks the arithmetic tiling against the literal
// definition: station i of the tiled fleet is station i mod period of the
// template's flat expansion, canonicalized.
func TestTileFleet(t *testing.T) {
	templates := [][]FleetStation{
		{{P: 0.1, Count: 1}},
		{{P: 0.1, Count: 2}, {P: 0.3, Count: 1}},
		{{P: 0.3, Speed: 2, Count: 3}, {P: 0.1, Count: 1}, {P: 0.3, Speed: 2, Count: 2}, {P: 0, Speed: 0.5, Count: 4}},
	}
	for _, tpl := range templates {
		var flat []FleetStation
		for _, s := range tpl {
			for i := 0; i < s.Count; i++ {
				flat = append(flat, FleetStation{P: s.P, Speed: s.speed(), Count: 1})
			}
		}
		for w := 1; w <= 3*len(flat)+1; w++ {
			brute := make([]FleetStation, 0, w)
			for i := 0; i < w; i++ {
				brute = append(brute, flat[i%len(flat)])
			}
			want := Fleet{Stations: brute}.Canonical()
			got, err := TileFleet(tpl, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("template %v tiled to %d: got %v, want %v", tpl, w, got, want)
			}
		}
	}
	// Cycle p: .1 .1 .3 .1 .1 .3 .1 → five at 0.1, two at 0.3.
	got, err := TileFleet(templates[1], 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := []FleetStation{{P: 0.1, Speed: 1, Count: 5}, {P: 0.3, Speed: 1, Count: 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tiled fleet %+v, want 5×0.1 + 2×0.3", got)
	}
	if _, err := TileFleet(nil, 3); err == nil {
		t.Fatal("empty template must be rejected")
	}
}

// fleetKernelWeff evaluates weighted efficiency with the fleet kernel,
// bypassing the binomial fast path that Analyze takes for a homogeneous mix.
func fleetKernelWeff(t *testing.T, f Fleet) float64 {
	t.Helper()
	r, err := analyzeFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	return r.WeightedEfficiency
}

// TestFleetThresholdCollapse: the threshold search on a homogeneous mix
// returns the same ratio whatever the mix's spelling, and the same ratio a
// linear scan finds with the fleet kernel.
func TestFleetThresholdCollapse(t *testing.T) {
	o, util := 10.0, 0.05
	p := util / (o * (1 - util))
	hq := ThresholdQuery{Stations: []FleetStation{{P: p, Count: 10}}, O: o, TargetWeightedEff: 0.8}
	want, wantEff, err := hq.MinTaskRatio(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	fq := ThresholdQuery{Stations: []FleetStation{{P: p, Count: 3}, {P: p, Speed: 1, Count: 7}}, O: o, TargetWeightedEff: 0.8}
	got, gotEff, err := fq.MinTaskRatio(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotEff != wantEff {
		t.Fatalf("split fleet threshold (%d, %v), one group (%d, %v)", got, gotEff, want, wantEff)
	}
	scan := 1
	for fleetKernelWeff(t, Fleet{J: float64(scan) * o * 10, O: o, Stations: hq.Stations}) < 0.8 {
		scan++
	}
	if scan != want {
		t.Fatalf("fleet-kernel scan threshold %d, binomial search %d", scan, want)
	}
}

// TestFleetThresholdMinimality: the mixed-fleet threshold is no easier
// than the all-best homogeneous fleet's, and the returned ratio is the
// true boundary (feasible at ratio, infeasible one below). Note the mixed
// fleet can need a *higher* ratio than even its worst homogeneous cousin:
// the job pays the worst group's max while weighted efficiency only
// credits the fleet-average utilization.
func TestFleetThresholdMinimality(t *testing.T) {
	o := 10.0
	lowP, highP := 0.003, 0.02
	mixed := ThresholdQuery{
		Stations:          []FleetStation{{P: lowP, Count: 5}, {P: highP, Count: 5}},
		O:                 o,
		TargetWeightedEff: 0.8,
	}
	mixedRatio, _, err := mixed.MinTaskRatio(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	best := ThresholdQuery{Stations: []FleetStation{{P: lowP, Count: 10}}, O: o, TargetWeightedEff: 0.8}
	bestRatio, _, err := best.MinTaskRatio(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if mixedRatio < bestRatio {
		t.Fatalf("mixed ratio %d below all-best homogeneous ratio %d", mixedRatio, bestRatio)
	}
	at, err := mixed.weightedEffAtRatio(float64(mixedRatio), 10)
	if err != nil {
		t.Fatal(err)
	}
	if at < 0.8 {
		t.Fatalf("weff(%d) = %v misses the target", mixedRatio, at)
	}
	if mixedRatio > 1 {
		below, err := mixed.weightedEffAtRatio(float64(mixedRatio-1), 10)
		if err != nil {
			t.Fatal(err)
		}
		if below >= 0.8 {
			t.Fatalf("weff(%d) = %v already meets the target; ratio %d is not minimal", mixedRatio-1, below, mixedRatio)
		}
	}
}

// TestMaxFleetWorkstationsCollapse: the partition search over a homogeneous
// template returns the same W whatever the template's spelling, and the
// largest W a scan of the fleet kernel finds meeting the target.
func TestMaxFleetWorkstationsCollapse(t *testing.T) {
	o, util := 10.0, 0.05
	p := util / (o * (1 - util))
	one := []FleetStation{{P: p, Count: 1}}
	want, err := MaxWorkstations(4000, o, one, 0.8, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MaxWorkstations(4000, o, []FleetStation{{P: p, Count: 2}, {P: p, Speed: 1, Count: 3}}, 0.8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("split template partition %d, one station %d", got, want)
	}
	scan := 0
	for w := 1; w <= 64; w++ {
		if fleetKernelWeff(t, Fleet{J: 4000, O: o, Stations: []FleetStation{{P: p, Count: w}}}) >= 0.8 {
			scan = w
		}
	}
	if scan != want {
		t.Fatalf("fleet-kernel scan partition %d, binomial search %d", scan, want)
	}
}

// TestScaledFleetSweepCollapse: the scaled sweep over a homogeneous
// template is bit-exact whatever the template's spelling, and agrees with
// the fleet kernel at every size.
func TestScaledFleetSweepCollapse(t *testing.T) {
	o, util := 10.0, 0.05
	p := util / (o * (1 - util))
	ws := []int{1, 4, 16}
	want, err := ScaledSweep(100, o, []FleetStation{{P: p, Count: 1}}, ws)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScaledSweep(100, o, []FleetStation{{P: p, Count: 1}, {P: p, Speed: 1, Count: 2}}, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		// The result echoes the tiled stations, which keep the spelling.
		g, w := got[i], want[i]
		g.Result.Stations, w.Result.Stations = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("W=%d: split template point %+v, one station %+v", ws[i], g, w)
		}
	}
	for i, w := range ws {
		r, err := analyzeFleet(Fleet{J: 100 * float64(w), O: o, Stations: []FleetStation{{P: p, Count: w}}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.EJob-want[i].Result.EJob) > 1e-12*want[i].Result.EJob {
			t.Fatalf("W=%d: fleet-kernel EJob %v, binomial %v", w, r.EJob, want[i].Result.EJob)
		}
		if inc := r.EJob/100 - 1; math.Abs(inc-want[i].IncreaseVsDedicated) > 1e-12 {
			t.Fatalf("W=%d: fleet-kernel increase-vs-dedicated %v, binomial %v", w, inc, want[i].IncreaseVsDedicated)
		}
	}
}

func TestAssessFleet(t *testing.T) {
	f := Fleet{J: 4000, O: 10, Stations: []FleetStation{
		{P: 0.003, Count: 5},
		{P: 0.02, Count: 5},
	}}
	v, err := Assess(f, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if v.MinRatio < 1 || v.MinJobDemand == 0 {
		t.Fatalf("verdict %+v: threshold must be reachable", v)
	}
	// Feasible iff the achieved weighted efficiency clears the target —
	// consistent with the threshold's own verdict at this ratio.
	atMin, err := Analyze(Fleet{J: v.MinJobDemand, O: 10, Stations: f.Stations})
	if err != nil {
		t.Fatal(err)
	}
	if atMin.WeightedEfficiency < 0.8 {
		t.Fatalf("fleet at MinJobDemand %v reaches only %v", v.MinJobDemand, atMin.WeightedEfficiency)
	}
	// A dedicated fleet is capped at its slowest station's speed at every
	// ratio: no prescription reaches 0.8, as the threshold search says.
	slow := Fleet{J: 1000, O: 10, Stations: []FleetStation{{Speed: 0.5, Count: 2}, {Speed: 1, Count: 2}}}
	if v, err := Assess(slow, 0.8); err != nil || v.Feasible || v.MinRatio != 0 || v.MinJobDemand != 0 {
		t.Fatalf("dedicated slow fleet verdict %+v (err %v): want infeasible with no prescription", v, err)
	}
}

// convolvedBurstMean is the mean of the fleet's total per-job burst count
// Σ_i Bin(n_i, p_i), read off the exact distribution: a DP that adds the
// fleet's interruptible trials one at a time. Entries below 1e-30 are
// trimmed off the top of the support, which moves the mean by far less
// than the 1e-12 the test allows.
func convolvedBurstMean(f Fleet) float64 {
	t := f.TaskDemand()
	pmf := []float64{1}
	for _, s := range f.Stations {
		if s.P == 0 {
			continue
		}
		for range s.Count * int(math.Round(t/s.speed())) {
			pmf = append(pmf, 0)
			for k := len(pmf) - 1; k > 0; k-- {
				pmf[k] = pmf[k]*(1-s.P) + pmf[k-1]*s.P
			}
			pmf[0] *= 1 - s.P
			for len(pmf) > 1 && pmf[len(pmf)-1] < 1e-30 {
				pmf = pmf[:len(pmf)-1]
			}
		}
	}
	var mean float64
	for k, q := range pmf {
		mean += float64(k) * q
	}
	return mean
}

// checkBurstMean fails t unless Analyze(f) reports EBurstsPerTsk·W equal to
// the mean of the exact distribution of f's total burst count to 1e-12
// relative.
func checkBurstMean(t *testing.T, f Fleet) {
	t.Helper()
	res, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.EBurstsPerTsk*float64(f.W()), convolvedBurstMean(f)
	if math.Abs(got-want) > 1e-12*want {
		t.Fatalf("fleet %+v: EBurstsPerTsk·W %v, convolved burst mean %v", f, got, want)
	}
}

// TestFleetBurstTables: the fleet's total per-job burst count has the
// closed-form mean that EBurstsPerTsk reports, on a fleet small enough to
// check by hand.
func TestFleetBurstTables(t *testing.T) {
	f := Fleet{J: 400, O: 10, Stations: []FleetStation{
		{P: 0.03, Count: 2},
		{P: 0.08, Count: 2},
	}}
	// n = 100 per station: mean = 2·100·0.03 + 2·100·0.08 = 22.
	if m := convolvedBurstMean(f); math.Abs(m-22) > 1e-12*22 {
		t.Fatalf("convolved burst mean %v, want 22", m)
	}
	res, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EBurstsPerTsk-22.0/4) > 1e-12 {
		t.Fatalf("EBurstsPerTsk %v, want %v", res.EBurstsPerTsk, 22.0/4)
	}
	checkBurstMean(t, f)
}

// TestFleetKernelSkipsPoissonBinomial pins what the fleet kernel computes
// in place of the fleet's Poisson-binomial burst distribution: its
// closed-form mean. EBurstsPerTsk·W equals the mean of the exact
// distribution of the fleet's total burst count to 1e-12 relative over 200
// seeded fleets, which include equal-p groups at different speeds and
// dedicated p = 0 groups.
func TestFleetKernelSkipsPoissonBinomial(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	ps := []float64{0, 0.005, 0.01, 0.02}
	speeds := []float64{1, 1.5, 2}
	checked := 0
	for i := 0; i < 200; i++ {
		stations := make([]FleetStation, 2+r.IntN(3))
		for g := range stations {
			p := 0.002 + 0.03*r.Float64()
			if r.IntN(2) == 0 {
				p = ps[r.IntN(len(ps))]
			}
			stations[g] = FleetStation{P: p, Speed: speeds[r.IntN(3)], Count: 1 + r.IntN(12)}
		}
		f := Fleet{O: 10, Stations: stations}
		f.J = float64(f.W()) * (20 + 380*r.Float64())
		if _, ok := f.homogeneous(); ok {
			continue
		}
		checkBurstMean(t, f)
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d of 200 seeded fleets were heterogeneous", checked)
	}
}

// refFleetJobPMF is the sort-and-dedup fleet kernel fleetJobPMF replaced,
// kept as the reference it must match to the bit. It builds the exact job
// completion-time distribution over the merged lattice of group support
// points x = t_g + k·O,
//
//	P(M ≤ x) = Π_g F_g(k_g(x))^c_g = exp( Σ_g c_g·log1p(−tail_g(k_g(x))) ),
//
// differenced across the sorted support. Groups whose window the point has
// not reached force the product to zero; the log1p(−tail) form keeps full
// relative precision where the per-group cdf is near one — exactly the
// regime a fleet-wide max amplifies.
func refFleetJobPMF(groups []fleetGroup, o float64) (times, probs []float64) {
	if o == 0 {
		deterministic := 0.0
		for _, g := range groups {
			if g.t > deterministic {
				deterministic = g.t
			}
		}
		return []float64{deterministic}, []float64{1}
	}
	// logCDF holds each group's c_g·log1p(−tail_g(k)) for k in [Lo, Hi),
	// the groups' windows laid end to end: computed once per window entry
	// instead of once per (lattice point, group) pair. A tail of 1 gives
	// −Inf, which exp maps to the zero the product needs.
	size := 0
	for _, g := range groups {
		size += g.tb.Hi - g.tb.Lo + 1
	}
	pts := make([]float64, 0, size)
	logCDF := make([]float64, 0, size-len(groups))
	for _, g := range groups {
		for k := g.tb.Lo; k <= g.tb.Hi; k++ {
			pts = append(pts, g.t+float64(k)*o)
		}
		for _, tau := range g.tb.tail[:g.tb.Hi-g.tb.Lo] {
			logCDF = append(logCDF, float64(g.Count)*math.Log1p(-tau))
		}
	}
	sort.Float64s(pts)
	dedup := pts[:1]
	for _, x := range pts[1:] {
		if x != dedup[len(dedup)-1] {
			dedup = append(dedup, x)
		}
	}

	times = make([]float64, 0, len(dedup))
	probs = make([]float64, 0, len(dedup))
	prev := 0.0
	for _, x := range dedup {
		logG := 0.0
		zero := false
		off := 0
		for _, g := range groups {
			k := int(math.Floor((x-g.t)/o + 1e-9))
			if k < g.tb.Lo {
				zero = true
				break
			}
			if k < g.tb.Hi { // at or above Hi the tail is 0: the factor is 1
				logG += logCDF[off+k-g.tb.Lo]
			}
			off += g.tb.Hi - g.tb.Lo
		}
		cum := 0.0
		if !zero {
			cum = math.Exp(logG)
		}
		p := cum - prev
		prev = cum
		if p <= 0 {
			continue
		}
		times = append(times, x)
		probs = append(probs, p)
	}
	if len(times) == 0 {
		// Every point differenced to zero mass (degenerate windows); fall
		// back to the largest support point as a point mass.
		return []float64{dedup[len(dedup)-1]}, []float64{1}
	}
	// Fold the truncated upper-tail remainder into the last kept point so
	// the distribution stays normalized, as burstCountToTimes does.
	if rem := 1 - prev; rem > 0 {
		probs[len(probs)-1] += rem
	}
	return times, probs
}

// refFleets are the seeded fleets the kernel is checked on against
// refFleetJobPMF: one to four groups at request probabilities from 0 to 1
// and speeds from 0.5 to 3, task demands from one unit to past the 2048
// full-support cutoff, and O from 0 to 10. Every fourth fleet puts two
// probabilities on one speed (coinciding lattices), and every fourth at
// speeds 1 and 2 with T/2 a multiple of O (partly coinciding lattices).
func refFleets(n int) []Fleet {
	r := rand.New(rand.NewPCG(21, 2026))
	probs := []float64{0, 0.001, 0.005, 0.02, 0.1, 0.3, 0.7, 1}
	speeds := []float64{0.5, 1, 1.5, 2, 3}
	demands := []float64{0, 0.5, 1, 5, 10}
	var out []Fleet
	for len(out) < n {
		f := Fleet{O: demands[r.IntN(len(demands))]}
		classes := 1 + r.IntN(4)
		for range classes {
			f.Stations = append(f.Stations, FleetStation{
				P: probs[r.IntN(len(probs))], Speed: speeds[r.IntN(len(speeds))], Count: 1 + r.IntN(40),
			})
		}
		switch len(out) % 4 {
		case 1:
			f.Stations = append(f.Stations, FleetStation{P: probs[1+r.IntN(6)], Speed: f.Stations[0].Speed, Count: 1 + r.IntN(8)})
		case 2:
			f.O = float64(1 + r.IntN(10))
			f.Stations = []FleetStation{{P: 0.01, Speed: 1, Count: 1 + r.IntN(20)}, {P: 0.05, Speed: 2, Count: 1 + r.IntN(20)}}
		}
		t := []float64{1, 7, 50, 300, 2000, 2600, 6000}[r.IntN(7)]
		if len(out)%4 == 2 {
			t = 2 * f.O * float64(1+r.IntN(200))
		}
		f.J = t * float64(f.W())
		if _, homog := f.homogeneous(); homog || f.Validate() != nil {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TestFleetJobPMFMatchesReference requires the merge-and-stop kernel to
// reproduce the sort-and-dedup reference to the bit: every time and every
// probability, on 2,400 seeded fleets, and through JobTimeDistribution.
func TestFleetJobPMFMatchesReference(t *testing.T) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for i, f := range refFleets(2400) {
		groups := resolveFleetGroups(f)
		times, probs := fleetJobPMF(groups, f.O)
		wantT, wantP := refFleetJobPMF(groups, f.O)
		releaseGroups(groups)
		if !same(times, wantT) || !same(probs, wantP) {
			t.Fatalf("fleet %d %+v:\n got %d points %v %v\nwant %d points %v %v",
				i, f, len(times), times, probs, len(wantT), wantT, wantP)
		}
		if i%8 == 0 {
			d, err := JobTimeDistribution(f)
			if err != nil {
				t.Fatal(err)
			}
			if !same(d.Times, wantT) || !same(d.Probs, wantP) {
				t.Fatalf("fleet %d %+v: JobTimeDistribution differs from the reference", i, f)
			}
		}
	}
}
