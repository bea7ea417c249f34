package stats

import "fmt"

// TimeWeighted accumulates the time average of a piecewise-constant signal
// — queue lengths, populations, busy counts. Observe(t, v) declares that
// the signal took value v starting at time t; Mean(t) integrates up to t.
type TimeWeighted struct {
	started  bool
	t0       float64 // first observation time
	lastT    float64
	lastV    float64
	integral float64
	min, max float64
}

// Observe records that the signal changed to v at time t. Times must be
// nondecreasing.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.t0, tw.lastT, tw.lastV = t, t, v
		tw.min, tw.max = v, v
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: time went backwards (%v after %v)", t, tw.lastT))
	}
	tw.integral += tw.lastV * (t - tw.lastT)
	tw.lastT, tw.lastV = t, v
	if v < tw.min {
		tw.min = v
	}
	if v > tw.max {
		tw.max = v
	}
}

// Mean returns the time average over [t0, t]. t must be at least the last
// observation time.
func (tw *TimeWeighted) Mean(t float64) float64 {
	if !tw.started || t <= tw.t0 {
		return 0
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: mean horizon %v before last observation %v", t, tw.lastT))
	}
	return (tw.integral + tw.lastV*(t-tw.lastT)) / (t - tw.t0)
}

// Current returns the signal's current value.
func (tw *TimeWeighted) Current() float64 { return tw.lastV }

// Min and Max return the observed extremes (0 when empty).
func (tw *TimeWeighted) Min() float64 {
	if !tw.started {
		return 0
	}
	return tw.min
}

// Max returns the maximum observed value (0 when empty).
func (tw *TimeWeighted) Max() float64 {
	if !tw.started {
		return 0
	}
	return tw.max
}

// Started reports whether any observation has been recorded.
func (tw *TimeWeighted) Started() bool { return tw.started }

// Integral returns the accumulated ∫v dt up to the last observation.
func (tw *TimeWeighted) Integral() float64 { return tw.integral }
