package rng

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Dist is a non-negative random-variate distribution. Implementations carry
// their analytic moments so tests and experiment reports can compare sampled
// statistics against the truth without re-deriving them.
type Dist interface {
	// Sample draws one variate using the given stream.
	Sample(s *Stream) float64
	// Mean is the analytic expectation.
	Mean() float64
	// Variance is the analytic variance.
	Variance() float64
	// String renders the distribution in the spec syntax accepted by Parse.
	String() string
}

// CV returns the coefficient of variation (stddev/mean) of d, or 0 when the
// mean is 0.
func CV(d Dist) float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	return math.Sqrt(d.Variance()) / m
}

// Deterministic is a point mass at V — the paper's owner service demand.
type Deterministic struct{ V float64 }

func (d Deterministic) Sample(*Stream) float64 { return d.V }
func (d Deterministic) Mean() float64          { return d.V }
func (d Deterministic) Variance() float64      { return 0 }
func (d Deterministic) String() string         { return fmt.Sprintf("det:%g", d.V) }

// Uniform is continuous uniform on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

func (d Uniform) Sample(s *Stream) float64 { return d.Lo + (d.Hi-d.Lo)*s.Float64() }
func (d Uniform) Mean() float64            { return (d.Lo + d.Hi) / 2 }
func (d Uniform) Variance() float64        { w := d.Hi - d.Lo; return w * w / 12 }
func (d Uniform) String() string           { return fmt.Sprintf("unif:%g,%g", d.Lo, d.Hi) }

// Exponential has the given mean (rate 1/M).
type Exponential struct{ M float64 }

func (d Exponential) Sample(s *Stream) float64 {
	// Inversion; 1-U avoids log(0).
	return -d.M * math.Log(1-s.Float64())
}
func (d Exponential) Mean() float64     { return d.M }
func (d Exponential) Variance() float64 { return d.M * d.M }
func (d Exponential) String() string    { return fmt.Sprintf("exp:%g", d.M) }

// Erlang is the sum of K exponential stages with total mean M (CV = 1/sqrt(K)).
type Erlang struct {
	K int
	M float64
}

func (d Erlang) Sample(s *Stream) float64 {
	stage := Exponential{M: d.M / float64(d.K)}
	var sum float64
	for i := 0; i < d.K; i++ {
		sum += stage.Sample(s)
	}
	return sum
}
func (d Erlang) Mean() float64     { return d.M }
func (d Erlang) Variance() float64 { return d.M * d.M / float64(d.K) }
func (d Erlang) String() string    { return fmt.Sprintf("erlang:%d,%g", d.K, d.M) }

// HyperExp is a two-branch hyperexponential: with probability P1 draw from an
// exponential with mean M1, otherwise mean M2. CV > 1; this is the classic
// model for the heavy-tailed interactive process demands reported by Sauer &
// Chandy (the paper's reference [7] for "much larger variance").
type HyperExp struct {
	P1     float64
	M1, M2 float64
}

func (d HyperExp) Sample(s *Stream) float64 {
	m := d.M2
	if s.Float64() < d.P1 {
		m = d.M1
	}
	return Exponential{M: m}.Sample(s)
}
func (d HyperExp) Mean() float64 { return d.P1*d.M1 + (1-d.P1)*d.M2 }
func (d HyperExp) Variance() float64 {
	// E[X^2] = p1*2*M1^2 + p2*2*M2^2 for a mixture of exponentials.
	m2 := 2 * (d.P1*d.M1*d.M1 + (1-d.P1)*d.M2*d.M2)
	m := d.Mean()
	return m2 - m*m
}
func (d HyperExp) String() string { return fmt.Sprintf("hyper:%g,%g,%g", d.P1, d.M1, d.M2) }

// BalancedHyperExp builds a two-branch hyperexponential with the requested
// mean and squared coefficient of variation cv2 (>1) using balanced means
// (p1*m1 = p2*m2), the standard construction in queueing texts.
func BalancedHyperExp(mean, cv2 float64) HyperExp {
	if cv2 <= 1 {
		return HyperExp{P1: 0.5, M1: mean, M2: mean}
	}
	r := math.Sqrt((cv2 - 1) / (cv2 + 1))
	p1 := (1 - r) / 2
	p2 := 1 - p1
	return HyperExp{P1: p1, M1: mean / (2 * p1), M2: mean / (2 * p2)}
}

// Pareto is a Lomax-free classic Pareto with scale Xm and shape A (> 1 for a
// finite mean; > 2 for finite variance).
type Pareto struct {
	Xm, A float64
}

func (d Pareto) Sample(s *Stream) float64 {
	return d.Xm / math.Pow(1-s.Float64(), 1/d.A)
}
func (d Pareto) Mean() float64 {
	if d.A <= 1 {
		return math.Inf(1)
	}
	return d.A * d.Xm / (d.A - 1)
}
func (d Pareto) Variance() float64 {
	if d.A <= 2 {
		return math.Inf(1)
	}
	return d.Xm * d.Xm * d.A / ((d.A - 1) * (d.A - 1) * (d.A - 2))
}
func (d Pareto) String() string { return fmt.Sprintf("pareto:%g,%g", d.Xm, d.A) }

// Geometric counts the number of unit steps up to and including the first
// success, with success probability P per step (support {1, 2, ...}, mean
// 1/P). This is the paper's owner think time: "at each time unit the owner
// requests the processor with probability P". NewGeometric takes ln(1-P)
// once for every draw; a literal Geometric{P: p} draws the same values but
// takes it on each draw.
type Geometric struct {
	P   float64
	lnQ float64 // math.Log1p(-P), or 0 if not yet taken
}

// NewGeometric returns the geometric distribution with success probability
// p, ready to sample.
func NewGeometric(p float64) Geometric {
	d := Geometric{P: p}
	if p > 0 && p < 1 {
		d.lnQ = math.Log1p(-p)
	}
	return d
}

func (d Geometric) Sample(s *Stream) float64 {
	if d.P >= 1 {
		return 1
	}
	if d.P <= 0 {
		return math.Inf(1)
	}
	// Inversion: ceil(ln(1-U)/ln(1-P)) is geometric on {1,2,...}.
	u := s.Float64()
	lnQ := d.lnQ
	if lnQ == 0 {
		lnQ = math.Log1p(-d.P)
	}
	k := math.Ceil(math.Log1p(-u) / lnQ)
	if k < 1 {
		k = 1
	}
	return k
}
func (d Geometric) Mean() float64     { return 1 / d.P }
func (d Geometric) Variance() float64 { return (1 - d.P) / (d.P * d.P) }
func (d Geometric) String() string    { return fmt.Sprintf("geom:%g", d.P) }

// Shifted adds a constant offset to another distribution, e.g. to model a
// minimum service demand.
type Shifted struct {
	D   Dist
	Off float64
}

func (d Shifted) Sample(s *Stream) float64 { return d.Off + d.D.Sample(s) }
func (d Shifted) Mean() float64            { return d.Off + d.D.Mean() }
func (d Shifted) Variance() float64        { return d.D.Variance() }
func (d Shifted) String() string           { return fmt.Sprintf("shift:%g,%s", d.Off, d.D) }

// Parse builds a Dist from a compact spec string, e.g.
//
//	det:10  exp:10  erlang:4,10  hyper:0.1,55,5  pareto:6,2.5  geom:0.01  unif:5,15
//
// The syntax is used by the command-line tools to describe owner workloads.
func Parse(spec string) (Dist, error) {
	name, rest, _ := strings.Cut(spec, ":")
	var args []float64
	if rest != "" {
		for _, f := range strings.Split(rest, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("rng: bad distribution spec %q: %v", spec, err)
			}
			args = append(args, v)
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("rng: %s expects %d parameters, got %d (spec %q)", name, n, len(args), spec)
		}
		return nil
	}
	switch name {
	case "det", "const":
		if err := need(1); err != nil {
			return nil, err
		}
		return Deterministic{V: args[0]}, nil
	case "exp":
		if err := need(1); err != nil {
			return nil, err
		}
		return Exponential{M: args[0]}, nil
	case "erlang":
		if err := need(2); err != nil {
			return nil, err
		}
		return Erlang{K: int(args[0]), M: args[1]}, nil
	case "hyper":
		if err := need(3); err != nil {
			return nil, err
		}
		return HyperExp{P1: args[0], M1: args[1], M2: args[2]}, nil
	case "pareto":
		if err := need(2); err != nil {
			return nil, err
		}
		return Pareto{Xm: args[0], A: args[1]}, nil
	case "geom":
		if err := need(1); err != nil {
			return nil, err
		}
		return NewGeometric(args[0]), nil
	case "unif":
		if err := need(2); err != nil {
			return nil, err
		}
		return Uniform{Lo: args[0], Hi: args[1]}, nil
	default:
		return nil, fmt.Errorf("rng: unknown distribution %q", name)
	}
}
