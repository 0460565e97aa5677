// Package sim holds the simulator's time primitives. The single-GPU
// model is a reservation calendar: FIFO bandwidth Links place each
// transfer at max(earliest, drain time) along the caller's cursor and
// keep busy-interval accounting, and no event ever fires. The
// discrete-event Engine, an event queue ordered by virtual time, drives
// only what needs callbacks: the fair-shared SharedLink and the
// multi-GPU schedule built on it (package sched).
//
// Virtual time is measured in nanoseconds and represented as float64 so
// cost models can produce fractional durations without rounding artifacts.
// Event delivery is deterministic: events at equal timestamps fire in the
// order they were scheduled.
package sim

import "fmt"

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (time, insertion
// sequence). The sift operations are implemented directly on the slice
// rather than through container/heap, whose interface{}-based Push/Pop
// would box every event into a fresh allocation on the scheduling hot
// path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and restores the heap order, reusing the backing array.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event, keeping the backing array.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the callback for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s.less(right, left) {
			min = right
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; create one with New.
type Engine struct {
	now float64
	seq uint64
	pq  eventHeap
}

// New returns an Engine with the clock at time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a broken cost model rather than a recoverable
// condition.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.pq.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) {
	e.At(e.now+d, fn)
}

// Step executes the earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Reset returns the engine to time zero for a fresh run, dropping any
// pending events while keeping the event heap's backing array so
// back-to-back simulations do not regrow it.
func (e *Engine) Reset() {
	for i := range e.pq {
		e.pq[i] = event{}
	}
	e.pq = e.pq[:0]
	e.now = 0
	e.seq = 0
}

// Run executes events until the queue drains and returns the final clock.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}
