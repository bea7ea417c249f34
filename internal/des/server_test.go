package des

import (
	"math"
	"math/rand/v2"
	"testing"
)

// useAt requests demand at prio from s at time t and records the completion
// time in *done.
func useAt(e *Engine, s *PreemptiveServer, t, demand Time, prio int, done *Time) {
	e.Schedule(t, func() {
		s.Use(demand, prio, func() { *done = e.Now() })
	})
}

func TestServerUncontendedServiceTime(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	var done Time
	useAt(e, s, 0, 10, 0, &done)
	e.Run()
	if done != 10 {
		t.Errorf("uncontended service finished at %v, want 10", done)
	}
	if s.Served() != 1 {
		t.Errorf("Served = %d", s.Served())
	}
	if s.Preemptions() != 0 {
		t.Errorf("Preemptions = %d", s.Preemptions())
	}
}

// TestPreemptionStretchesLowPriority is the paper's workstation in
// miniature: a parallel task of demand 10 is preempted at t=3 by an owner
// burst of demand 5; the owner finishes at 8, the task at 15.
func TestPreemptionStretchesLowPriority(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("ws")
	var taskDone, ownerDone Time
	useAt(e, s, 0, 10, 0, &taskDone)
	useAt(e, s, 3, 5, 1, &ownerDone)
	e.Run()
	if ownerDone != 8 {
		t.Errorf("owner finished at %v, want 8", ownerDone)
	}
	if taskDone != 15 {
		t.Errorf("task finished at %v, want 15 (preemptive resume)", taskDone)
	}
	if s.Preemptions() != 1 {
		t.Errorf("Preemptions = %d, want 1", s.Preemptions())
	}
}

func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	var aDone, bDone Time
	useAt(e, s, 0, 10, 1, &aDone)
	useAt(e, s, 2, 10, 1, &bDone)
	e.Run()
	if aDone != 10 || bDone != 20 {
		t.Errorf("a/b done at %v/%v, want 10/20 (FIFO within class)", aDone, bDone)
	}
}

func TestFIFOWithinPriorityClass(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	var order []string
	// Occupy the server, then queue three same-priority requests, the
	// later arrivals scheduled first.
	var holder Time
	useAt(e, s, 0, 5, 0, &holder)
	for _, c := range []struct {
		name string
		at   Time
	}{{"third", 3}, {"second", 2}, {"first", 1}} {
		e.Schedule(c.at, func() {
			s.Use(1, 0, func() { order = append(order, c.name) })
		})
	}
	e.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestPreemptedResumesBeforeLaterArrivalsOfSameClass(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	var order []string
	e.Schedule(0, func() {
		s.Use(10, 0, func() { order = append(order, "victim") }) // preempted at t=2
	})
	var owner Time
	useAt(e, s, 2, 5, 1, &owner)
	e.Schedule(3, func() { // arrives while owner runs, same class as victim
		s.Use(1, 0, func() { order = append(order, "later") })
	})
	e.Run()
	// Victim arrived first; it must resume (and finish) before "later".
	if len(order) != 2 || order[0] != "victim" || order[1] != "later" {
		t.Errorf("order = %v, want [victim later]", order)
	}
}

func TestNestedPreemptionThreeLevels(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	var low, mid, high Time
	useAt(e, s, 0, 10, 0, &low)
	useAt(e, s, 2, 4, 1, &mid)
	useAt(e, s, 3, 2, 2, &high)
	e.Run()
	// high: 3..5; mid: 2..3 then 5..8; low: 0..2 then 8..16.
	if high != 5 {
		t.Errorf("high done at %v, want 5", high)
	}
	if mid != 8 {
		t.Errorf("mid done at %v, want 8", mid)
	}
	if low != 16 {
		t.Errorf("low done at %v, want 16", low)
	}
	if s.Preemptions() != 2 {
		t.Errorf("Preemptions = %d, want 2", s.Preemptions())
	}
}

func TestZeroDemandReturnsImmediately(t *testing.T) {
	// A zero demand needs no service: done runs inline, before Use
	// returns, without scheduling an event.
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	ran := false
	var at Time = -1
	e.Schedule(0, func() {
		s.Use(0, 0, func() { at = e.Now() })
		ran = at == 0
	})
	e.Run()
	if !ran {
		t.Errorf("zero demand did not complete inline (done at %v)", at)
	}
	if e.Processed() != 1 {
		t.Errorf("Processed = %d, want 1 (no completion event)", e.Processed())
	}
	if s.Served() != 0 {
		t.Errorf("zero demand should not count as served")
	}
}

func TestNegativeDemandPanics(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	defer func() {
		if recover() == nil {
			t.Error("negative demand should panic")
		}
	}()
	s.Use(-1, 0, func() {})
}

func TestBusyTimeAccounting(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("ws")
	var task, owner Time
	useAt(e, s, 0, 10, 0, &task)
	useAt(e, s, 3, 5, 1, &owner)
	e.Run()
	if bt := s.BusyTime(0); bt != 10 {
		t.Errorf("task-class busy time %v, want 10", bt)
	}
	if bt := s.BusyTime(1); bt != 5 {
		t.Errorf("owner-class busy time %v, want 5", bt)
	}
	if tot := s.TotalBusyTime(); tot != 15 {
		t.Errorf("total busy %v, want 15", tot)
	}
	// Horizon is 15 (no idle): utilizations 10/15 and 5/15.
	if u := s.Utilization(1); math.Abs(u-5.0/15) > 1e-12 {
		t.Errorf("owner utilization %v, want %v", u, 5.0/15)
	}
}

func TestBusyTimeIncludesInProgressSlice(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("ws")
	var done Time
	useAt(e, s, 0, 10, 0, &done)
	e.RunUntil(4)
	if bt := s.BusyTime(0); bt != 4 {
		t.Errorf("in-progress busy time %v, want 4", bt)
	}
	if !s.Busy() {
		t.Error("server should be busy at t=4")
	}
}

// TestWorkConservation drives random arrivals through the server and checks
// that delivered service equals the sum of demands once everything drains,
// and that no customer finishes before its arrival + demand.
func TestWorkConservation(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		s := e.NewPreemptiveServer("cpu")
		var totalDemand float64
		type rec struct{ arrive, demand, done float64 }
		var recs []*rec
		n := 2 + r.IntN(30)
		for i := 0; i < n; i++ {
			rc := &rec{arrive: r.Float64() * 50, demand: 0.1 + r.Float64()*10}
			totalDemand += rc.demand
			recs = append(recs, rc)
			useAt(e, s, rc.arrive, rc.demand, r.IntN(3), &rc.done)
		}
		e.Run()
		if got := s.TotalBusyTime(); math.Abs(got-totalDemand) > 1e-6 {
			t.Fatalf("trial %d: busy %v != total demand %v", trial, got, totalDemand)
		}
		for _, rc := range recs {
			if rc.done < rc.arrive+rc.demand-1e-9 {
				t.Fatalf("trial %d: customer finished at %v before arrive+demand %v",
					trial, rc.done, rc.arrive+rc.demand)
			}
		}
		if s.Served() != uint64(n) {
			t.Fatalf("trial %d: served %d of %d", trial, s.Served(), n)
		}
		if s.QueueLen() != 0 || s.Busy() {
			t.Fatalf("trial %d: server not drained", trial)
		}
	}
}

// TestHighPriorityUnaffectedByLow verifies the paper's core assumption:
// owner processes never wait for parallel tasks.
func TestHighPriorityUnaffectedByLow(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	e := NewEngine()
	s := e.NewPreemptiveServer("ws")
	// A parallel task hogging the CPU from t=0.
	var task Time
	useAt(e, s, 0, 1e6, 0, &task)
	// Sparse owner bursts must each take exactly their demand.
	for i := 0; i < 20; i++ {
		arrive := 10 + float64(i)*100 + r.Float64()*10
		demand := 1 + r.Float64()*5
		e.Schedule(arrive, func() {
			s.Use(demand, 1, func() {
				if got := e.Now() - arrive; math.Abs(got-demand) > 1e-9 {
					t.Errorf("owner burst took %v, want %v", got, demand)
				}
			})
		})
	}
	e.Run()
}

func TestServerQueueLengthStats(t *testing.T) {
	e := NewEngine()
	s := e.NewPreemptiveServer("cpu")
	// Occupant 0..10; three arrivals at t=0 queue behind it, draining one
	// every 10: queue length 3 on [0,10), 2 on [10,20), 1 on [20,30), 0 after.
	var done Time
	for i := 0; i < 4; i++ {
		useAt(e, s, 0, 10, 0, &done)
	}
	for i, want := range []int{3, 2, 1, 0} {
		at := Time(5 + 10*i)
		e.Schedule(at, func() {
			if got := s.QueueLen(); got != want {
				t.Errorf("queue length %d at t=%v, want %d", got, at, want)
			}
		})
	}
	e.Run()
	if done != 40 {
		t.Errorf("last request done at %v, want 40", done)
	}
}

func TestServerName(t *testing.T) {
	e := NewEngine()
	if s := e.NewPreemptiveServer("ws7"); s.Name() != "ws7" {
		t.Errorf("Name = %q", s.Name())
	}
}
