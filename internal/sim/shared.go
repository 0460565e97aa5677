package sim

import "sort"

// SharedLink models a bandwidth pool under deterministic max-min fair
// sharing (processor sharing): any number of flows progress
// simultaneously, each at a rate bounded by its own cap and by a fair
// share of the pool capacity. It is the arbitration primitive behind
// multi-GPU topologies, where concurrent jobs' DMA/fault/prefetch
// streams contend for one PCIe-switch uplink or for the host DRAM
// chips, instead of each assuming an exclusive Link.
//
// Rates are recomputed by water-filling on every flow arrival and
// completion: sorted by cap ascending, each flow receives
// min(cap, remainingCapacity/flowsLeft). The sum of granted rates never
// exceeds the capacity, a flow alone on the link runs at exactly its
// cap (so an uncontended transfer reproduces its measured solo
// duration), and every byte handed to Start is eventually delivered —
// the invariants pinned by the property tests in shared_test.go.
//
// Like the rest of the engine, a SharedLink is single-threaded and
// fully deterministic: event times are pure functions of the call
// sequence, and simultaneous completions fire in flow start order.
type SharedLink struct {
	Name string

	eng      *Engine
	capacity float64 // bytes per ns

	flows      []*sharedFlow // active flows, in start order
	lastUpdate float64       // time the remaining-byte ledger was advanced to
	gen        uint64        // invalidates completion events made stale by a later join
	busyStart  float64       // start of the current busy span (valid while flows exist)
	busy       IntervalSet
	delivered  float64 // total bytes completed so far
	peak       int     // high-water mark of concurrent flows
}

// sharedFlow is one in-flight transfer on a SharedLink.
type sharedFlow struct {
	started   float64 // original size in bytes
	remaining float64 // bytes left to deliver
	cap       float64 // per-flow rate cap, bytes per ns
	rate      float64 // current granted rate
	done      func(end float64)
}

// NewSharedLink creates a fair-shared bandwidth pool on eng with the
// given capacity in bytes per nanosecond (numerically GB/s).
func NewSharedLink(eng *Engine, name string, capacityBytesPerNs float64) *SharedLink {
	if capacityBytesPerNs <= 0 {
		panic("sim: shared link capacity must be positive")
	}
	return &SharedLink{Name: name, eng: eng, capacity: capacityBytesPerNs}
}

// Capacity returns the pool capacity in bytes per nanosecond.
func (l *SharedLink) Capacity() float64 { return l.capacity }

// Active reports the number of in-flight flows.
func (l *SharedLink) Active() int { return len(l.flows) }

// PeakFlows reports the high-water mark of concurrent flows.
func (l *SharedLink) PeakFlows() int { return l.peak }

// Delivered reports the total bytes completed so far.
func (l *SharedLink) Delivered() float64 { return l.delivered }

// Busy returns the link's busy-interval accounting (spans during which
// at least one flow was in flight).
func (l *SharedLink) Busy() *IntervalSet { return &l.busy }

// Rate returns the aggregate granted rate of all active flows.
func (l *SharedLink) Rate() float64 {
	var sum float64
	for _, f := range l.flows {
		sum += f.rate
	}
	return sum
}

// Start begins a flow of the given size at the engine's current time.
// rateCap bounds the flow's solo bandwidth (a cap <= 0 or above the
// capacity means "link limited"); done (may be nil) fires when the last
// byte is delivered, receiving the completion time. Flows joining or
// leaving later re-share the pool, so the final duration is only known
// when done fires.
func (l *SharedLink) Start(bytes, rateCap float64, done func(end float64)) {
	now := l.eng.Now()
	if bytes <= 0 {
		if done != nil {
			l.eng.At(now, func() { done(now) })
		}
		return
	}
	if rateCap <= 0 || rateCap > l.capacity {
		rateCap = l.capacity
	}
	l.advance(now)
	if len(l.flows) == 0 {
		l.busyStart = now
	}
	l.gen++ // the new flow makes any scheduled completion stale
	f := &sharedFlow{started: bytes, remaining: bytes, cap: rateCap, done: done}
	l.flows = append(l.flows, f)
	if len(l.flows) > l.peak {
		l.peak = len(l.flows)
	}
	l.reshare()
	l.scheduleNext(now)
}

// advance debits every flow's remaining bytes for the time elapsed at
// the current rate assignment.
func (l *SharedLink) advance(now float64) {
	dt := now - l.lastUpdate
	l.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range l.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reshare recomputes every flow's granted rate by max-min water-filling:
// caps ascending (start order on ties), each flow gets
// min(cap, remaining/flowsLeft) of the unassigned capacity. Flows whose
// cap is below the fair share leave their slack to the rest.
func (l *SharedLink) reshare() {
	n := len(l.flows)
	if n == 0 {
		return
	}
	order := make([]*sharedFlow, n)
	copy(order, l.flows)
	sort.SliceStable(order, func(a, b int) bool { return order[a].cap < order[b].cap })
	left := l.capacity
	for i, f := range order {
		share := left / float64(n-i)
		if f.cap < share {
			share = f.cap
		}
		f.rate = share
		left -= share
	}
}

// scheduleNext queues the earliest flow-completion event under the
// current rate assignment. A generation counter guards the event: any
// later Start or completion bumps it, turning the stale event into a
// no-op.
func (l *SharedLink) scheduleNext(now float64) {
	if len(l.flows) == 0 {
		return
	}
	next := -1.0
	for _, f := range l.flows {
		// Every active flow has rate > 0: water-filling grants positive
		// shares while capacity and caps are positive.
		t := f.remaining / f.rate
		if next < 0 || t < next {
			next = t
		}
	}
	gen := l.gen
	l.eng.At(now+next, func() { l.complete(gen) })
}

// complete finishes every flow that has drained by the event time, then
// reshares and reschedules. Done callbacks fire after the link state is
// consistent, in flow start order, so a callback may immediately Start
// a follow-up flow.
func (l *SharedLink) complete(gen uint64) {
	if gen != l.gen {
		return // a later join already rescheduled this completion
	}
	now := l.eng.Now()
	l.advance(now)
	// Collect drained flows in start order. A flow is done when its
	// ledger is empty up to a sub-byte epsilon — or when the float
	// residue left by advance's rate*dt debits drains in less time than
	// float64 can add to the clock (now+dt == now). Without the second
	// clause the link would reschedule a zero-width event at the same
	// timestamp forever.
	var finished []*sharedFlow
	active := l.flows[:0]
	for _, f := range l.flows {
		if f.remaining <= 1e-9 || now+f.remaining/f.rate == now {
			finished = append(finished, f)
		} else {
			active = append(active, f)
		}
	}
	l.flows = active
	// A finished flow delivered everything it started with (remaining
	// was debited to ~0), so credit the original size.
	for _, f := range finished {
		l.delivered += f.started
	}
	l.gen++
	if len(l.flows) == 0 {
		l.busy.Add(l.busyStart, now)
	} else {
		l.reshare()
		l.scheduleNext(now)
	}
	for _, f := range finished {
		if f.done != nil {
			f.done(now)
		}
	}
}

// Reset clears all flow state and accounting for a fresh run on the
// same engine.
func (l *SharedLink) Reset() {
	l.flows = l.flows[:0]
	l.lastUpdate = 0
	l.gen++
	l.busy.Reset()
	l.delivered = 0
	l.peak = 0
}
