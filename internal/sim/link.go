package sim

import "uvmasim/internal/trace"

// Link models a bandwidth-limited FIFO pipe: a PCIe direction, an HBM
// channel group, or a DMA engine. Transfers queue behind each other; each
// occupies the link for latency + size/bandwidth. Busy time is recorded in
// an IntervalSet so the harness can attribute overlapped transfer time.
type Link struct {
	Name string

	eng        *Engine
	bytesPerNs float64 // peak bandwidth
	busyUntil  float64
	busy       IntervalSet
}

// NewLink creates a link on eng with the given peak bandwidth in bytes
// per nanosecond. Since 1 GB/s equals exactly 1 byte/ns, callers can use
// the GBPerSec helper to state bandwidths in familiar units.
func NewLink(eng *Engine, name string, bytesPerNs float64) *Link {
	if bytesPerNs <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{Name: name, eng: eng, bytesPerNs: bytesPerNs}
}

// GBPerSec converts a bandwidth in gigabytes per second into the
// bytes-per-nanosecond unit Links use. 1 GB/s == 1 byte/ns is a pleasant
// coincidence of units (1e9 bytes / 1e9 ns).
func GBPerSec(gbps float64) float64 { return gbps }

// Bandwidth returns the link's peak bandwidth in bytes per nanosecond.
func (l *Link) Bandwidth() float64 { return l.bytesPerNs }

// SetBandwidth changes the link's peak bandwidth. Pending transfers keep
// the duration computed when they were enqueued.
func (l *Link) SetBandwidth(bytesPerNs float64) {
	if bytesPerNs <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	l.bytesPerNs = bytesPerNs
}

// TransferTime returns the service time for size bytes at efficiency eff
// (0 < eff <= 1) plus a fixed latency, without enqueuing anything.
func (l *Link) TransferTime(size float64, latency, eff float64) float64 {
	if eff <= 0 || eff > 1 {
		panic("sim: transfer efficiency must be in (0,1]")
	}
	return latency + size/(l.bytesPerNs*eff)
}

// Transfer enqueues a transfer of size bytes with the given fixed latency
// and link efficiency. done (may be nil) fires when the transfer leaves
// the link; it receives the completion time. Transfer returns the
// predicted completion time.
func (l *Link) Transfer(size, latency, eff float64, done func(end float64)) float64 {
	return l.TransferAt(l.eng.Now(), size, latency, eff, done)
}

// TransferAt is Transfer with an explicit earliest start time, which may
// lie in the simulated future. Pipeline models use it to reserve link
// time from a kernel's internal progress cursor without driving the
// event loop. The transfer begins at max(earliest, link drain time).
func (l *Link) TransferAt(earliest, size, latency, eff float64, done func(end float64)) float64 {
	_, end := l.ReserveAt(earliest, size, latency, eff, done)
	return end
}

// ReserveAt is TransferAt exposing the resolved start time as well, so
// observability layers can record the transfer's actual busy span (queue
// wait excluded) rather than only its completion. It is TransferTime
// plus Reserve.
//
// The results are deliberately unnamed locals: the done-callback closure
// must not capture a result variable, or every call would heap-allocate
// it even with done == nil (the Tracer's zero-overhead contract).
func (l *Link) ReserveAt(earliest, size, latency, eff float64, done func(end float64)) (float64, float64) {
	start, end := l.Reserve(earliest, l.TransferTime(size, latency, eff))
	if done != nil {
		l.eng.At(end, func() { done(end) })
	}
	return start, end
}

// Reserve reserves one transfer of precomputed duration dur (see
// TransferTime) that starts at max(earliest, now, drain time), and
// returns its start and end. A caller reserving a run of same-size
// transfers computes the duration once for the whole run, and each
// Reserve then equals the matching ReserveAt bit for bit.
func (l *Link) Reserve(earliest, dur float64) (float64, float64) {
	start := l.startAt(earliest)
	end := start + dur
	l.busyUntil = end
	l.busy.Add(start, end)
	return start, end
}

// startAt is the start of a transfer enqueued now that may begin no
// earlier than earliest: max(earliest, now, drain time).
func (l *Link) startAt(earliest float64) float64 {
	start := earliest
	if now := l.eng.Now(); start < now {
		start = now
	}
	if l.busyUntil > start {
		start = l.busyUntil
	}
	return start
}

// ReserveRun reserves len(ends) back-to-back transfers of duration dur,
// the first starting no earlier than earliest, and writes each
// completion time into ends. It returns the first start. It equals
// len(ends) successive ReserveAt calls, each starting no earlier than
// the previous end, bit for bit: the first start is max(earliest, now,
// drain time) and every later start is exactly the previous end, so the
// busy set merges the run into one span and records it with one Add.
func (l *Link) ReserveRun(earliest, dur float64, ends []float64) float64 {
	start := l.startAt(earliest)
	end := start
	for i := range ends {
		end += dur
		ends[i] = end
	}
	if len(ends) > 0 {
		l.busyUntil = end
		l.busy.Add(start, end)
	}
	return start
}

// Tracer returns the tracer attached to the link's engine (nil when
// tracing is disabled).
func (l *Link) Tracer() *trace.Tracer { return l.eng.Tracer() }

// BusyUntil reports the time at which the link drains.
func (l *Link) BusyUntil() float64 { return l.busyUntil }

// Busy returns the link's busy-interval accounting set.
func (l *Link) Busy() *IntervalSet { return &l.busy }

// Reset clears busy accounting and queue state (for a fresh run on the
// same engine).
func (l *Link) Reset() {
	l.busyUntil = 0
	l.busy.Reset()
}
