package des

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refCalendar is the reference the engine's calendar is checked against: a
// plain list of pending events, popped by a linear scan for the least
// (t, seq). Event ids are schedule sequence numbers, counted the way the
// engine counts them.
type refCalendar struct {
	now       Time
	processed uint64
	pending   []refEvent
	done      []bool // done[id]: the event ran or was cancelled
	log       []int  // ids in the order they ran
}

type refEvent struct {
	t     Time
	id    int
	spawn bool
}

func (r *refCalendar) schedule(t Time, spawn bool) {
	r.pending = append(r.pending, refEvent{t, len(r.done), spawn})
	r.done = append(r.done, false)
}

func (r *refCalendar) cancel(id int) {
	if r.done[id] {
		return
	}
	r.done[id] = true
	r.pending = slices.DeleteFunc(r.pending, func(ev refEvent) bool { return ev.id == id })
}

func (r *refCalendar) next() int {
	m := 0
	for i, ev := range r.pending {
		if ev.t < r.pending[m].t || (ev.t == r.pending[m].t && ev.id < r.pending[m].id) {
			m = i
		}
	}
	return m
}

func (r *refCalendar) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	m := r.next()
	ev := r.pending[m]
	r.pending = slices.Delete(r.pending, m, m+1)
	r.done[ev.id] = true
	r.now = ev.t
	r.processed++
	r.log = append(r.log, ev.id)
	if ev.spawn {
		child := len(r.done)
		r.schedule(r.now, false)
		r.schedule(r.now+1, false)
		if ev.id%3 == 0 {
			r.cancel(child)
		}
	}
	return true
}

func (r *refCalendar) runUntil(horizon Time) {
	for len(r.pending) > 0 && (horizon < 0 || r.pending[r.next()].t <= horizon) {
		r.step()
	}
	if horizon >= 0 && r.now < horizon {
		r.now = horizon
	}
}

// checkEngineOrder decodes ops as (opcode, argument) byte pairs, applies
// each to an Engine and to the reference, and fails at the first operation
// after which the two disagree on the events run so far, Now, Pending or
// Processed. A spawning event schedules a child at Now and one a unit
// later when it runs, and cancels the first child if its id is a multiple
// of 3.
func checkEngineOrder(t testing.TB, ops []byte) {
	t.Helper()
	e := NewEngine()
	ref := &refCalendar{}
	var handles []Handle
	var log []int
	var schedule func(at Time, spawn bool)
	schedule = func(at Time, spawn bool) {
		id := len(handles)
		handles = append(handles, e.Schedule(at, func() {
			log = append(log, id)
			if spawn {
				child := len(handles)
				schedule(e.Now(), false)
				schedule(e.Now()+1, false)
				if id%3 == 0 {
					e.Cancel(handles[child])
				}
			}
		}))
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, ops[i+1]
		spawn, k := arg&0x80 != 0, Time(arg&0x7f)
		now := e.Now()
		switch op {
		case 0: // at Now: the FIFO
			schedule(now, spawn)
			ref.schedule(now, spawn)
		case 1: // at one of a few future instants, so times tie
			at := now + 1 + Time(int(k)%3)
			schedule(at, spawn)
			ref.schedule(at, spawn)
		case 2: // at a time that rarely ties
			at := now + (k+0.5)/16
			schedule(at, spawn)
			ref.schedule(at, spawn)
		case 3: // pending, run, cancelled or reused: any handle ever issued
			if len(handles) > 0 {
				id := int(arg) % len(handles)
				e.Cancel(handles[id])
				ref.cancel(id)
			}
		case 4:
			if got, want := e.Step(), ref.step(); got != want {
				t.Fatalf("op %d: Step = %v, want %v", i/2, got, want)
			}
		case 5:
			horizon := now + Time(int(k)%4)
			switch arg % 8 {
			case 6:
				horizon = now / 2 // before Now: runs nothing
			case 7:
				horizon = -1
			}
			e.RunUntil(horizon)
			ref.runUntil(horizon)
		}
		if !slices.Equal(log, ref.log) {
			t.Fatalf("op %d (%d, %d): ran %v, want %v", i/2, op, arg, log, ref.log)
		}
		if e.Now() != ref.now || e.Pending() != len(ref.pending) || e.Processed() != ref.processed {
			t.Fatalf("op %d (%d, %d): Now, Pending, Processed = %v, %d, %d; want %v, %d, %d",
				i/2, op, arg, e.Now(), e.Pending(), e.Processed(), ref.now, len(ref.pending), ref.processed)
		}
	}
	e.Run()
	ref.runUntil(-1)
	if !slices.Equal(log, ref.log) || e.Pending() != 0 || e.Processed() != ref.processed {
		t.Fatalf("drain: ran %v, want %v; Pending %d, Processed %d, want 0, %d",
			log, ref.log, e.Pending(), e.Processed(), ref.processed)
	}
}

func TestEngineOrderProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(24, 1))
	for trial := 0; trial < 500; trial++ {
		ops := make([]byte, 2*(1+r.IntN(200)))
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		checkEngineOrder(t, ops)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0x80, 1, 0, 4, 0, 0, 0, 3, 2, 5, 3})
	f.Add([]byte{1, 1, 1, 0x81, 4, 0, 0, 0x80, 3, 0, 4, 0, 3, 1, 0, 0, 5, 7})
	f.Add([]byte{2, 9, 2, 9, 0, 0, 3, 0, 5, 0, 0, 0, 3, 3, 4, 0, 5, 6})
	f.Fuzz(func(t *testing.T, ops []byte) { checkEngineOrder(t, ops) })
}
