package des

import (
	"math/rand/v2"
	"sort"
	"testing"
)

func TestHoldAdvancesClock(t *testing.T) {
	// A chain of callbacks, each scheduling the next after a delay, is the
	// callback form of a process holding 5 and then 2.5.
	e := NewEngine()
	var at Time
	e.Schedule(5, func() {
		e.Schedule(e.Now()+2.5, func() { at = e.Now() })
	})
	e.Run()
	if at != 7.5 {
		t.Errorf("chain finished at %v, want 7.5", at)
	}
	if e.Now() != 7.5 {
		t.Errorf("engine clock %v, want 7.5", e.Now())
	}
}

func TestProcessesInterleaveByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, c := range []struct {
		name string
		at   Time
	}{{"slow", 5}, {"fast", 3}, {"mid", 4}} {
		e.Schedule(c.at, func() { order = append(order, c.name) })
	}
	e.Run()
	want := []string{"fast", "mid", "slow"}
	for i, n := range want {
		if order[i] != n {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

func TestSameTimeTieBreakIsScheduleOrder(t *testing.T) {
	// Ties break by schedule order, including events scheduled from inside
	// a callback for the current instant: they run after every event
	// already scheduled for it.
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		e.Schedule(1, func() {
			order = append(order, i)
			if i == 0 {
				e.Schedule(1, func() { order = append(order, 10) })
			}
		})
	}
	e.Run()
	if len(order) != 11 {
		t.Fatalf("%d events ran, want 11", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated schedule order: %v", order)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		var times []float64
		r := rand.New(rand.NewPCG(42, 43))
		for i := 0; i < 50; i++ {
			e.Schedule(r.Float64()*100, func() { times = append(times, e.Now()) })
		}
		e.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical schedules produced different histories")
		}
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	var tick func()
	tick = func() {
		ran++
		if ran < 10 {
			e.Schedule(e.Now()+1, tick)
		}
	}
	e.Schedule(1, tick)
	e.RunUntil(4.5)
	if ran != 4 {
		t.Errorf("%d ticks ran before horizon, want 4", ran)
	}
	if e.Now() != 4.5 {
		t.Errorf("clock %v, want horizon 4.5", e.Now())
	}
	e.RunUntil(100)
	if ran != 10 {
		t.Errorf("%d ticks after second run, want 10", ran)
	}
	if e.Now() != 100 {
		t.Errorf("clock %v, want horizon 100", e.Now())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() {
		count++
		e.Schedule(2, func() { count++ })
	})
	if !e.Step() {
		t.Fatal("first step should succeed")
	}
	if count != 1 || e.Now() != 1 {
		t.Fatalf("after first step: count %d at %v, want 1 at 1", count, e.Now())
	}
	if !e.Step() {
		t.Fatal("second step should succeed")
	}
	if count != 2 || e.Now() != 2 {
		t.Fatalf("after second step: count %d at %v, want 2 at 2", count, e.Now())
	}
	if e.Step() {
		t.Fatal("no events should remain")
	}
}

func TestScheduleFuncAndCancel(t *testing.T) {
	e := NewEngine()
	fired := []string{}
	e.Schedule(5, func() { fired = append(fired, "keep") })
	h := e.Schedule(3, func() { fired = append(fired, "cancelled") })
	e.Cancel(h)
	e.Run()
	if len(fired) != 1 || fired[0] != "keep" {
		t.Errorf("fired = %v", fired)
	}
	if e.Now() != 5 {
		t.Errorf("clock %v, want 5", e.Now())
	}
}

func TestPendingAndProcessedCounters(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Cancel(e.Schedule(3, func() {}))
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 (cancelled excluded)", e.Pending())
	}
	e.Run()
	if e.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", e.Processed())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run() // clock now 10
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past should panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestQuickRandomHoldsCompleteInOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 25; trial++ {
		e := NewEngine()
		n := 1 + r.IntN(40)
		type done struct{ at, want float64 }
		var finished []done
		handles := make([]Handle, n)
		cancelled := map[int]bool{}
		for i := 0; i < n; i++ {
			d := r.Float64() * 50
			handles[i] = e.Schedule(d, func() { finished = append(finished, done{e.Now(), d}) })
		}
		// Cancel a random subset; the rest must still fire in time order.
		for i := 0; i < n; i++ {
			if r.IntN(4) == 0 {
				e.Cancel(handles[i])
				cancelled[i] = true
			}
		}
		e.Run()
		if len(finished) != n-len(cancelled) {
			t.Fatalf("trial %d: %d of %d events fired", trial, len(finished), n-len(cancelled))
		}
		if !sort.SliceIsSorted(finished, func(i, j int) bool { return finished[i].at < finished[j].at }) {
			t.Fatalf("trial %d: events out of time order", trial)
		}
		for _, f := range finished {
			if f.at != f.want {
				t.Fatalf("trial %d: event ran at %v, want %v", trial, f.at, f.want)
			}
		}
	}
}

func TestPendingLiveCounter(t *testing.T) {
	// Pending must track the brute-force definition (scheduled,
	// uncancelled, unexecuted) through schedule, cancel, double-cancel,
	// cancel-after-fire and step — and a stale handle must not cancel the
	// later event that reuses its record.
	e := NewEngine()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Schedule(3, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Cancel(b)
	e.Cancel(b) // idempotent
	if e.Pending() != 2 {
		t.Fatalf("after cancel: Pending = %d, want 2", e.Pending())
	}
	if !e.Step() { // fires a
		t.Fatal("expected an event")
	}
	if e.Pending() != 1 {
		t.Fatalf("after step: Pending = %d, want 1", e.Pending())
	}
	e.Cancel(a) // cancelling an already-fired event must not double-count
	if e.Pending() != 1 {
		t.Fatalf("after cancel-after-fire: Pending = %d, want 1", e.Pending())
	}
	fired := false
	e.Schedule(4, func() { fired = true }) // reuses a's or b's record
	e.Cancel(a)
	e.Cancel(b)
	if e.Pending() != 2 {
		t.Fatalf("stale handles cancelled a live event: Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 || !fired {
		t.Fatalf("after drain: Pending = %d, fired = %v; want 0, true", e.Pending(), fired)
	}
	if e.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", e.Processed())
	}
}

// The tests below are the callback forms of the process-engine cases of the
// same names: a process's start, hold, yield or timed receive is written as
// a callback scheduled where the process would have scheduled its wake-up.

func TestSpawnAt(t *testing.T) {
	// A callback scheduled for a later time on an empty calendar starts
	// there: the clock jumps to it.
	e := NewEngine()
	var started Time = -1
	e.Schedule(10, func() { started = e.Now() })
	e.Run()
	if started != 10 {
		t.Errorf("late callback started at %v, want 10", started)
	}
}

func TestNestedSpawn(t *testing.T) {
	// A callback that starts a child chain and then holds itself: the child
	// runs at its own time while the parent's later event still fires.
	e := NewEngine()
	var childAt, parentAt Time
	e.Schedule(3, func() {
		e.Schedule(e.Now()+4, func() { childAt = e.Now() })
		e.Schedule(e.Now()+10, func() { parentAt = e.Now() })
	})
	e.Run()
	if childAt != 7 {
		t.Errorf("child finished at %v, want 7", childAt)
	}
	if parentAt != 13 {
		t.Errorf("parent finished at %v, want 13", parentAt)
	}
}

func TestYieldOrdersWithinInstant(t *testing.T) {
	// Rescheduling at Now from inside a callback (a yield) runs after every
	// event already scheduled for the instant.
	e := NewEngine()
	var order []string
	e.Schedule(0, func() {
		e.Schedule(e.Now(), func() { order = append(order, "a-after-yield") })
	})
	e.Schedule(0, func() { order = append(order, "b") })
	e.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a-after-yield" {
		t.Errorf("order = %v", order)
	}
}

func TestNegativeHoldPanics(t *testing.T) {
	// A negative delay from inside a running callback panics; recovering in
	// the callback leaves the engine consistent and able to continue.
	e := NewEngine()
	panicked := false
	var after Time
	e.Schedule(4, func() {
		defer func() { panicked = recover() != nil }()
		e.Schedule(e.Now()-1, func() { t.Error("past event ran") })
	})
	e.Schedule(6, func() { after = e.Now() })
	e.Run()
	if !panicked {
		t.Error("negative delay should panic")
	}
	if after != 6 {
		t.Errorf("later event ran at %v, want 6", after)
	}
	if e.Pending() != 0 || e.Processed() != 2 {
		t.Errorf("Pending = %d, Processed = %d; want 0, 2", e.Pending(), e.Processed())
	}
}

func TestStaleWakeDoesNotResurrectHold(t *testing.T) {
	// A timed receive that got its message keeps a handle to its cancelled
	// timeout. The record is recycled for the next hold; cancelling through
	// the stale handle again must not cut that hold short.
	e := NewEngine()
	var holdEnd Time
	var timeout Handle
	e.Schedule(0, func() {
		timeout = e.Schedule(5, func() { t.Error("timeout fired after the message") })
	})
	e.Schedule(3, func() {
		e.Cancel(timeout) // the message wins
		e.Schedule(e.Now()+100, func() { holdEnd = e.Now() })
		e.Cancel(timeout) // stale: its record now holds the 100-unit hold
	})
	e.Run()
	if holdEnd != 103 {
		t.Errorf("hold ended at %v, want 103", holdEnd)
	}
}

func TestPendingTracksTimeoutWakes(t *testing.T) {
	// A timed receive schedules a timeout and cancels it when the message
	// wins; the counters must survive that churn and end at zero pending.
	e := NewEngine()
	got := 0
	timeout := e.Schedule(50, func() { t.Error("timeout fired after the message") })
	e.Schedule(5, func() {
		got = 7
		e.Cancel(timeout)
	})
	if e.Pending() != 2 {
		t.Fatalf("before run: Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
	if e.Pending() != 0 || e.Processed() != 1 {
		t.Fatalf("after run: Pending = %d, Processed = %d; want 0, 1", e.Pending(), e.Processed())
	}
	if e.Now() != 5 {
		t.Errorf("clock %v, want 5", e.Now())
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	// No message arrives: the timeout fires at its deadline and the clock
	// stops there.
	e := NewEngine()
	var at Time = -1
	e.Schedule(7, func() { at = e.Now() })
	e.Run()
	if at != 7 || e.Now() != 7 {
		t.Errorf("timed out at %v (clock %v), want 7", at, e.Now())
	}
}

func TestRecvTimeoutSimultaneousSendAndTimeout(t *testing.T) {
	// A message sent at exactly the deadline instant. The receive's timeout
	// was scheduled first, so it runs first, cancels the delivery and
	// leaves the message queued; the outcome is decided once.
	e := NewEngine()
	queued, received, timedOut := 0, 0, 0
	var delivery Handle
	e.Schedule(0, func() {
		e.Schedule(5, func() { // the receive's timeout
			timedOut++
			e.Cancel(delivery)
		})
	})
	e.Schedule(0, func() {
		queued = 1
		delivery = e.Schedule(5, func() { // the sender's hold, then delivery
			received++
			queued--
		})
	})
	e.Run()
	if timedOut != 1 || received != 0 || queued != 1 {
		t.Errorf("timedOut=%d received=%d queued=%d; want 1, 0, 1", timedOut, received, queued)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}
