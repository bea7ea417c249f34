package des

import (
	"fmt"
	"slices"
)

// PreemptiveServer is a single CPU serving prioritized customers under
// preemptive resume: a higher-priority arrival immediately suspends the
// customer in service; the suspended customer later resumes with its
// remaining demand intact. Within a priority class, service is FIFO by
// arrival. This is the workstation of the paper's model — owner processes
// run at a higher priority than parallel tasks and preempt them on arrival.
type PreemptiveServer struct {
	eng  *Engine
	name string

	occupant   *request
	completion Handle     // the occupant's completion event
	queue      []*request // waiting requests, kept sorted by (prio desc, seq asc)
	free       []*request // finished requests, reused by Use
	completeFn func()     // s.complete, bound once

	// busy accumulates service time delivered to each priority class, in
	// the order the classes were first served.
	busy       []classBusy
	preemptCnt uint64
	servedCnt  uint64
	createdAt  Time
}

type classBusy struct {
	prio int
	t    Time
}

type request struct {
	prio      int
	remaining Time
	seq       uint64 // arrival order, preserved across preemptions
	startedAt Time
	done      func()
}

// NewPreemptiveServer creates a named server on e.
func (e *Engine) NewPreemptiveServer(name string) *PreemptiveServer {
	srv := &PreemptiveServer{
		eng:       e,
		name:      name,
		createdAt: e.now,
	}
	srv.completeFn = srv.complete
	return srv
}

// Name returns the server's name.
func (s *PreemptiveServer) Name() string { return s.name }

// Use requests demand units of service at the given priority (larger is more
// important) and runs done as an event at the instant the service
// completes, which may be far beyond Now+demand when higher-priority
// customers preempt. A zero demand needs no service: done runs at once,
// before Use returns.
func (s *PreemptiveServer) Use(demand Time, prio int, done func()) {
	if demand < 0 {
		panic(fmt.Sprintf("des: negative service demand %v on %q", demand, s.name))
	}
	if demand == 0 {
		done()
		return
	}
	var req *request
	if n := len(s.free); n > 0 {
		req = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		req = new(request)
	}
	*req = request{prio: prio, remaining: demand, seq: s.eng.nextSeq(), done: done}
	switch {
	case s.occupant == nil:
		s.begin(req)
	case req.prio > s.occupant.prio:
		s.suspendOccupant()
		s.begin(req)
	default:
		s.enqueue(req)
	}
}

// begin puts req into service and schedules its completion.
func (s *PreemptiveServer) begin(req *request) {
	s.occupant = req
	req.startedAt = s.eng.now
	s.completion = s.eng.Schedule(s.eng.now+req.remaining, s.completeFn)
}

// suspendOccupant preempts the customer in service, crediting the service it
// already received and returning it to the queue with its remaining demand.
func (s *PreemptiveServer) suspendOccupant() {
	occ := s.occupant
	s.occupant = nil
	s.eng.Cancel(s.completion)
	served := s.eng.now - occ.startedAt
	occ.remaining -= served
	s.credit(occ.prio, served)
	s.preemptCnt++
	if occ.remaining < 0 {
		occ.remaining = 0 // float guard; cannot go negative in exact arithmetic
	}
	s.enqueue(occ)
}

// credit adds served time to prio's busy total. A model has a class or
// two, so a scan beats a map.
func (s *PreemptiveServer) credit(prio int, served Time) {
	for i := range s.busy {
		if s.busy[i].prio == prio {
			s.busy[i].t += served
			return
		}
	}
	s.busy = append(s.busy, classBusy{prio, served})
}

func (s *PreemptiveServer) enqueue(req *request) {
	i := len(s.queue)
	for i > 0 {
		q := s.queue[i-1]
		if q.prio > req.prio || (q.prio == req.prio && q.seq < req.seq) {
			break
		}
		i--
	}
	s.queue = slices.Insert(s.queue, i, req)
}

// complete finishes the occupant's service, schedules its done callback,
// and starts the next queued request.
func (s *PreemptiveServer) complete() {
	req := s.occupant
	s.occupant = nil
	s.credit(req.prio, s.eng.now-req.startedAt)
	s.servedCnt++
	s.eng.Schedule(s.eng.now, req.done)
	req.done = nil
	s.free = append(s.free, req)
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		s.begin(next)
	}
}

// Busy reports whether a customer is in service.
func (s *PreemptiveServer) Busy() bool { return s.occupant != nil }

// QueueLen is the number of waiting (not in service) requests.
func (s *PreemptiveServer) QueueLen() int { return len(s.queue) }

// Preemptions is the number of preemptions so far.
func (s *PreemptiveServer) Preemptions() uint64 { return s.preemptCnt }

// Served is the number of completed service requests.
func (s *PreemptiveServer) Served() uint64 { return s.servedCnt }

// BusyTime returns the cumulative service delivered to the given priority
// class, including the in-progress slice of the current occupant.
func (s *PreemptiveServer) BusyTime(prio int) Time {
	var t Time
	for _, b := range s.busy {
		if b.prio == prio {
			t = b.t
			break
		}
	}
	if s.occupant != nil && s.occupant.prio == prio {
		t += s.eng.now - s.occupant.startedAt
	}
	return t
}

// TotalBusyTime returns cumulative service over all priorities.
func (s *PreemptiveServer) TotalBusyTime() Time {
	var t Time
	for _, b := range s.busy {
		t += b.t
	}
	if s.occupant != nil {
		t += s.eng.now - s.occupant.startedAt
	}
	return t
}

// Utilization returns the busy fraction of the given priority class since
// the server was created.
func (s *PreemptiveServer) Utilization(prio int) float64 {
	horizon := s.eng.now - s.createdAt
	if horizon <= 0 {
		return 0
	}
	return s.BusyTime(prio) / horizon
}
