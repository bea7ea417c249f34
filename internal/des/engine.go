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
// The calendar has two parts. Events later than Now wait in a binary heap
// whose slots carry each event's time and sequence number inline, so
// ordering the heap reads no event record. Events scheduled for Now itself
// (a completion's done callback, a fork's task starts, a wake-up) go to a
// FIFO queue, which pops them in schedule order without touching the heap.
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

// Engine owns the event calendar and the simulated clock. Every event in
// fifo[head:] is due at Now and was scheduled after every heap event due at
// Now, so popping the lesser (t, seq) of the heap top and the FIFO head
// runs events in exactly (t, seq) order.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64
	heap      []slot   // binary min-heap on (t, seq): events scheduled for a later time
	fifo      []*event // events scheduled for Now, in schedule order, from head on
	head      int
	queued    int      // uncancelled events in fifo[head:]
	free      []*event // executed or cancelled records, reused by Schedule
}

// slot is a heap entry. It copies its event's time and sequence number so
// that a comparison loads no pointer.
type slot struct {
	t   Time
	seq uint64
	ev  *event
}

func (a slot) before(b slot) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

// Values of event.index besides a heap position.
const (
	gone   = -1 // executed, cancelled or free
	inFIFO = -2 // waiting in the FIFO
)

// event is a calendar record; index is its heap position, gone or inFIFO.
type event struct {
	seq   uint64
	fn    func()
	index int
}

// NewEngine creates an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return len(e.heap) + e.queued }

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
	ev.seq, ev.fn = e.nextSeq(), fn
	if t == e.now {
		ev.index = inFIFO
		e.fifo = append(e.fifo, ev)
		e.queued++
	} else {
		e.heap = append(e.heap, slot{})
		e.up(len(e.heap)-1, slot{t, ev.seq, ev})
	}
	return Handle{ev: ev, seq: ev.seq}
}

// Cancel removes a pending event from the calendar. Cancelling an event that
// already ran or was already cancelled is a no-op. A cancelled heap event
// leaves the heap at once; a cancelled FIFO event stays in the queue,
// marked, and is dropped when the queue reaches it.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.seq != h.seq {
		return
	}
	switch i := ev.index; {
	case i == inFIFO:
		ev.index, ev.fn = gone, nil
		e.queued--
	case i >= 0:
		last := len(e.heap) - 1
		s := e.heap[last]
		e.heap = e.heap[:last]
		if i < last { // refill the hole at i with the last slot
			e.up(i, s)
			e.down(s.ev.index, s)
		}
		e.release(ev)
	}
}

// release returns a record that has left the calendar to the free list.
func (e *Engine) release(ev *event) {
	ev.index = gone
	ev.fn = nil
	e.free = append(e.free, ev)
}

// pop removes the next event in (t, seq) order from the calendar and
// advances the clock to it; it returns nil when no event is pending.
func (e *Engine) pop() *event {
	for e.head < len(e.fifo) {
		ev := e.fifo[e.head]
		if ev.index == gone { // cancelled while queued
			e.head++
			e.release(ev)
			continue
		}
		if len(e.heap) > 0 && e.heap[0].t == e.now && e.heap[0].seq < ev.seq {
			break
		}
		e.head++
		e.queued--
		return ev
	}
	if e.head == len(e.fifo) {
		e.fifo, e.head = e.fifo[:0], 0
	}
	n := len(e.heap) - 1
	if n < 0 {
		return nil
	}
	top, last := e.heap[0], e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.down(0, last)
	}
	e.now = top.t
	return top.ev
}

// Step executes exactly one event; it reports false when the calendar is
// empty.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
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
	for e.Pending() > 0 && (horizon < 0 || e.nextTime() <= horizon) {
		e.Step()
	}
	if horizon >= 0 && e.now < horizon {
		e.now = horizon
	}
}

// nextTime is the time of the next pending event; there must be one.
func (e *Engine) nextTime() Time {
	if e.queued > 0 {
		return e.now
	}
	return e.heap[0].t
}

// up moves s from position i toward the root to its place, shifting the
// slots it passes down one level.
func (e *Engine) up(i int, s slot) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = s
	s.ev.index = i
}

// down places s at position i or below, shifting the lesser child up while
// it precedes s.
func (e *Engine) down(i int, s slot) {
	h := e.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(s) {
			break
		}
		h[i] = h[c]
		h[i].ev.index = i
		i = c
	}
	h[i] = s
	s.ev.index = i
}
