package stats

import "math"

// NormalQuantile returns the p-quantile of the standard normal distribution
// using the Beasley-Springer-Moro rational approximation (absolute error
// below 3e-9 over (0,1)). It panics for p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	// Coefficients from Moro (1995).
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		x = -x
	}
	return x
}

// TQuantile returns the p-quantile of Student's t distribution with df
// degrees of freedom, via G. W. Hill's Algorithm 396 (CACM, 1970) with a
// Newton polish against the t CDF. Accuracy is ample for confidence
// intervals (relative error well under 1e-6 for df ≥ 1).
func TQuantile(p, df float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: TQuantile requires 0 < p < 1")
	}
	if df < 1 {
		panic("stats: TQuantile requires df >= 1")
	}
	if p == 0.5 {
		return 0
	}
	sign := 1.0
	if p < 0.5 {
		sign = -1
		p = 1 - p
	}
	var x float64
	switch {
	case df == 1:
		// Exact: Cauchy quantile.
		x = math.Tan(math.Pi * (p - 0.5))
	case df == 2:
		// Exact closed form for df = 2.
		alpha := 2*p - 1
		x = alpha * math.Sqrt(2/(1-alpha*alpha))
	default:
		x = hill396(2*(1-p), df)
	}
	// Newton polish: solve F(x) = p using the t CDF.
	for i := 0; i < 4; i++ {
		f := TCDF(x, df) - p
		d := tPDF(x, df)
		if d <= 0 {
			break
		}
		step := f / d
		if math.Abs(step) < 1e-14*(1+math.Abs(x)) {
			break
		}
		x -= step
	}
	return sign * x
}

// hill396 is the core of Algorithm 396: upper-tail two-sided inverse,
// returning t with P(|T| > t) = q for df = n.
func hill396(q, n float64) float64 {
	a := 1 / (n - 0.5)
	b := 48 / (a * a)
	c := ((20700*a/b-98)*a-16)*a + 96.36
	d := ((94.5/(b+c)-3)/b + 1) * math.Sqrt(a*math.Pi/2) * n
	x := d * q
	y := math.Pow(x, 2/n)
	if y > 0.05+a {
		// Asymptotic inverse expansion about the normal.
		x = NormalQuantile(q / 2) // negative number
		y = x * x
		if n < 5 {
			c += 0.3 * (n - 4.5) * (x - 0.5)
		}
		c = (((0.05*d*x-5)*x-7)*x-2)*x + b + c
		y = (((((0.4*y+6.3)*y+36)*y+94.5)/c-y-3)/b + 1) * x
		y = a * y * y
		if y > 0.002 {
			y = math.Expm1(y)
		} else {
			y = 0.5*y*y + y
		}
	} else {
		y = ((1/(((n+6)/(n*y)-0.089*d-0.822)*(n+2)*3)+0.5/(n+4))*y-1)*(n+1)/(n+2) + 1/y
	}
	return math.Sqrt(n * y)
}

// TCDF is the cumulative distribution function of Student's t with df
// degrees of freedom, computed through the regularized incomplete beta
// function.
func TCDF(x, df float64) float64 {
	if x == 0 {
		return 0.5
	}
	ib := RegIncBeta(df/2, 0.5, df/(df+x*x))
	if x > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// tPDF is the density of Student's t with df degrees of freedom.
func tPDF(x, df float64) float64 {
	lg1, _ := math.Lgamma((df + 1) / 2)
	lg2, _ := math.Lgamma(df / 2)
	return math.Exp(lg1-lg2) / math.Sqrt(df*math.Pi) *
		math.Pow(1+x*x/df, -(df+1)/2)
}

// RegIncBeta is the regularized incomplete beta function I_x(a, b), computed
// with the continued-fraction expansion of Numerical Recipes (Lentz's
// algorithm); accurate to ~1e-14 for moderate a, b.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for RegIncBeta via modified
// Lentz's method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
