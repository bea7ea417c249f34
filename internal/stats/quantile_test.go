package stats

import (
	"math"
	"testing"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1}, // Phi(1)
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.99, 2.3263478740408408},
		{0.005, -2.575829303548901},
		{0.25, -0.6744897501960817},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 5e-8 {
			t.Errorf("NormalQuantile(%v) = %.10f, want %.10f", c.p, got, c.want)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) should panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Reference values from standard t tables (two-sided).
	cases := []struct {
		p, df, want float64
	}{
		{0.975, 1, 12.706204736},
		{0.975, 2, 4.302652730},
		{0.975, 5, 2.570581836},
		{0.975, 10, 2.228138852},
		{0.975, 30, 2.042272456},
		{0.95, 5, 2.015048373},
		{0.95, 19, 1.729132812}, // paper protocol: 20 batches, 90% level
		{0.95, 120, 1.657650899},
		{0.995, 10, 3.169272667},
		{0.9, 3, 1.637744352},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > 2e-6*c.want {
			t.Errorf("TQuantile(%v, %v) = %.9f, want %.9f", c.p, c.df, got, c.want)
		}
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, df := range []float64{1, 2, 7, 23, 100} {
		for _, p := range []float64{0.6, 0.9, 0.99} {
			up := TQuantile(p, df)
			dn := TQuantile(1-p, df)
			if math.Abs(up+dn) > 1e-9*(1+math.Abs(up)) {
				t.Errorf("df=%v p=%v: asymmetric quantiles %v vs %v", df, p, up, dn)
			}
		}
	}
	if TQuantile(0.5, 7) != 0 {
		t.Error("median of t must be 0")
	}
}

func TestTQuantileApproachesNormal(t *testing.T) {
	for _, p := range []float64{0.9, 0.975, 0.995} {
		tq := TQuantile(p, 1e6)
		nq := NormalQuantile(p)
		if math.Abs(tq-nq) > 1e-4 {
			t.Errorf("p=%v: t(df=1e6)=%v vs normal %v", p, tq, nq)
		}
	}
}

func TestTQuantileRoundTripsThroughCDF(t *testing.T) {
	for _, df := range []float64{1, 2, 3, 8, 19, 240} {
		for _, p := range []float64{0.05, 0.2, 0.5, 0.8, 0.95, 0.999} {
			x := TQuantile(p, df)
			back := TCDF(x, df)
			if !(math.Abs(back-p) <= 1e-8) { // NaN fails too

				t.Errorf("df=%v: TCDF(TQuantile(%v)) = %v", df, p, back)
			}
		}
	}
}

func TestTQuantileDF3(t *testing.T) {
	// df 3 is a 4-batch protocol's; at these levels Hill's initial guess
	// takes its small-tail branch, which once returned NaN.
	for _, c := range []struct{ p, want float64 }{
		{0.95, 2.353363434801823},
		{0.975, 3.182446305284263},
	} {
		if got := TQuantile(c.p, 3); !(math.Abs(got-c.want) <= 1e-9) {
			t.Errorf("TQuantile(%v, 3) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTQuantileFiniteAndIncreasing(t *testing.T) {
	for df := 1.0; df <= 60; df++ {
		prev := math.Inf(-1)
		for i := 1; i < 1000; i++ {
			p := float64(i) / 1000
			x := TQuantile(p, df)
			if math.IsInf(x, 0) || !(x > prev) {
				t.Fatalf("df=%v: TQuantile(%v) = %v after %v at p-0.001", df, p, x, prev)
			}
			prev = x
		}
	}
}

func TestTQuantilePanics(t *testing.T) {
	for _, bad := range []struct{ p, df float64 }{{0, 5}, {1, 5}, {0.5, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TQuantile(%v,%v) should panic", bad.p, bad.df)
				}
			}()
			TQuantile(bad.p, bad.df)
		}()
	}
}

func TestRegIncBetaProperties(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("endpoints wrong")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.37, 0.5, 0.9} {
		l := RegIncBeta(2.5, 4, x)
		r := 1 - RegIncBeta(4, 2.5, 1-x)
		if math.Abs(l-r) > 1e-12 {
			t.Errorf("symmetry violated at x=%v: %v vs %v", x, l, r)
		}
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.2, 0.6, 0.95} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Monotone in x.
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.05 {
		v := RegIncBeta(3, 7, x)
		if v < prev {
			t.Fatalf("RegIncBeta not monotone at x=%v", x)
		}
		prev = v
	}
}

func TestTCDFKnownValues(t *testing.T) {
	if got := TCDF(0, 5); got != 0.5 {
		t.Errorf("TCDF(0) = %v", got)
	}
	// t=1, df=1 is Cauchy: CDF = 1/2 + atan(1)/pi = 0.75.
	if got := TCDF(1, 1); math.Abs(got-0.75) > 1e-10 {
		t.Errorf("Cauchy CDF(1) = %v, want 0.75", got)
	}
	if got := TCDF(-1, 1); math.Abs(got-0.25) > 1e-10 {
		t.Errorf("Cauchy CDF(-1) = %v, want 0.25", got)
	}
}
