// Package des is a discrete-event simulation engine: a single-threaded
// calendar of callbacks. The original study validated its analysis with
// CSIM (Schwetman 1986, the paper's reference [8]), whose model processes
// hold, wait and resume. A process engine in Go runs each process on its
// own goroutine and hands control over through channels, two handoffs per
// hold or wake-up; for the paper's workstation model that scheduling cost
// far exceeds the model's own. Here a model writes each resumption point as
// a callback scheduled where the process would have scheduled its wake-up.
// The event order (time, then schedule sequence) is the same, so a model
// behaves exactly as its process form would.
//
// Engine.Schedule runs a func() at a simulated time; PreemptiveServer
// models a CPU serving prioritized customers with preemptive resume and
// runs each customer's done callback when its service completes. Event and
// request records are recycled, so a model whose callbacks are allocated
// once runs without allocating per event.
package des

import "fmt"

// Time is simulated time. The feasibility model is discrete time; it simply
// schedules at integral Times.
type Time = float64

// Engine owns the event calendar and the simulated clock.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64
	events    []*event // binary min-heap on (t, seq)
	free      []*event // executed or cancelled records, reused by Schedule
}

// NewEngine creates an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return len(e.events) }

// event is a calendar entry; index is its heap position, -1 once it has
// left the calendar.
type event struct {
	t     Time
	seq   uint64
	fn    func()
	index int
}

// Handle names a scheduled event for Cancel. Event records are recycled;
// the handle's sequence number tells a pending event from a later reuse of
// its record.
type Handle struct {
	ev  *event
	seq uint64
}

// nextSeq takes the next schedule sequence number.
func (e *Engine) nextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// Schedule runs fn at simulated time t (>= Now). Events at the same time
// run in schedule order. Callbacks run on the caller's goroutine, inside
// Step or RunUntil, and may schedule further events.
func (e *Engine) Schedule(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.t, ev.seq, ev.fn = t, e.nextSeq(), fn
	ev.index = len(e.events)
	e.events = append(e.events, ev)
	e.up(ev.index)
	return Handle{ev: ev, seq: ev.seq}
}

// Cancel removes a pending event from the calendar. Cancelling an event that
// already ran or was already cancelled is a no-op.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.seq != h.seq || ev.index < 0 {
		return
	}
	i, last := ev.index, len(e.events)-1
	e.swap(i, last)
	e.events = e.events[:last]
	if i != last {
		e.down(i)
		e.up(i)
	}
	e.release(ev)
}

// release returns a record that has left the calendar to the free list.
func (e *Engine) release(ev *event) {
	ev.index = -1
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step executes exactly one event; it reports false when the calendar is
// empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events[0]
	last := len(e.events) - 1
	e.swap(0, last)
	e.events = e.events[:last]
	e.down(0)
	e.now = ev.t
	e.processed++
	fn := ev.fn
	e.release(ev)
	fn()
	return true
}

// Run executes events until the calendar is empty.
func (e *Engine) Run() { e.RunUntil(-1) }

// RunUntil executes events with time <= horizon (any horizon < 0 means "run
// to exhaustion"). The clock is left at the last executed event's time, or
// at the horizon if it is later.
func (e *Engine) RunUntil(horizon Time) {
	for len(e.events) > 0 && (horizon < 0 || e.events[0].t <= horizon) {
		e.Step()
	}
	if horizon >= 0 && e.now < horizon {
		e.now = horizon
	}
}

// less orders the calendar by time, breaking ties by schedule order.
func (e *Engine) less(i, j int) bool {
	a, b := e.events[i], e.events[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	h := e.events
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (e *Engine) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(i, p) {
			return
		}
		e.swap(i, p)
		i = p
	}
}

func (e *Engine) down(i int) {
	n := len(e.events)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && e.less(r, c) {
			c = r
		}
		if !e.less(c, i) {
			return
		}
		e.swap(i, c)
		i = c
	}
}
