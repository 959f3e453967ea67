// Package des implements a deterministic discrete-event simulator with
// virtual time and FIFO server queues. GridVine uses it to replay overlay
// message traces under a wide-area latency model and reproduce the query
// latency distribution the paper reports for its 340-machine deployment
// (§2.3) without running on 340 machines.
package des

import (
	"container/heap"
	"fmt"
	"time"
)

// Simulator is an event-driven virtual-time executor. It is not safe for
// concurrent use; all scheduling happens from the driving goroutine or from
// event callbacks.
type Simulator struct {
	now     time.Duration
	events  eventHeap
	seq     int64
	servers map[string]*Server
	steps   int
}

// New returns an empty simulator at virtual time zero.
func New() *Simulator {
	return &Simulator{servers: make(map[string]*Server)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Steps returns the number of events processed so far.
func (s *Simulator) Steps() int { return s.steps }

// Schedule registers fn to run at virtual time at. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Simulator) Schedule(at time.Duration, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// ScheduleAfter registers fn to run d after the current virtual time.
func (s *Simulator) ScheduleAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.now+d, fn)
}

// Step processes the next event, if any, advancing virtual time. It reports
// whether an event was processed.
func (s *Simulator) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(*event)
	s.now = ev.at
	s.steps++
	ev.fn()
	return true
}

// Run processes events until none remain and returns the number processed.
func (s *Simulator) Run() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// Server returns the FIFO server with the given id, creating it on first
// use. A Server models a peer's CPU: requests queue and are serviced one at
// a time in arrival order.
func (s *Simulator) Server(id string) *Server {
	srv, ok := s.servers[id]
	if !ok {
		srv = &Server{id: id, sim: s}
		s.servers[id] = srv
	}
	return srv
}

// Server is a single FIFO queue with one service unit. Enqueue must be
// called at the request's arrival time (i.e. from an event callback or
// before Run at time zero); the simulator's in-order event processing then
// guarantees FIFO semantics.
type Server struct {
	id        string
	sim       *Simulator
	busyUntil time.Duration
}

// ID returns the server identifier.
func (srv *Server) ID() string { return srv.id }

// Enqueue adds a request with the given service demand, arriving now. When
// the request completes, done is invoked (at the completion time) with the
// service start and finish times. done may be nil.
func (srv *Server) Enqueue(service time.Duration, done func(start, finish time.Duration)) {
	if service < 0 {
		service = 0
	}
	start := srv.sim.now
	if srv.busyUntil > start {
		start = srv.busyUntil
	}
	finish := start + service
	srv.busyUntil = finish
	srv.sim.Schedule(finish, func() {
		if done != nil {
			done(start, finish)
		}
	})
}

type event struct {
	at  time.Duration
	seq int64 // FIFO tie-break for equal timestamps
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
