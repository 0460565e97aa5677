package sim

// Link models a bandwidth-limited FIFO pipe: a PCIe direction, an HBM
// channel group, or a DMA engine. Transfers queue behind each other; each
// occupies the link for latency + size/bandwidth, starting at the later
// of the caller's earliest time and the link's drain time. A busy meter
// (busy.go) streams the link's busy time: its total, and the share that
// falls inside a window the caller opens and closes around a kernel, so
// the harness can attribute overlapped transfer time without storing
// one span per transfer.
type Link struct {
	bytesPerNs float64 // peak bandwidth
	busyUntil  float64
	busy       busyMeter
}

// NewLink creates a link with the given peak bandwidth in bytes per
// nanosecond, which is numerically its rate in GB/s (1e9 bytes / 1e9 ns).
func NewLink(bytesPerNs float64) *Link {
	if bytesPerNs <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{bytesPerNs: bytesPerNs}
}

// TransferTime returns the service time for size bytes at efficiency eff
// (0 < eff <= 1) plus a fixed latency, without enqueuing anything.
func (l *Link) TransferTime(size float64, latency, eff float64) float64 {
	if eff <= 0 || eff > 1 {
		panic("sim: transfer efficiency must be in (0,1]")
	}
	return latency + size/(l.bytesPerNs*eff)
}

// ReserveAt reserves a transfer of size bytes with the given fixed
// latency and link efficiency that starts at max(earliest, drain time),
// and returns its start and end, so observability layers can record the
// transfer's actual busy span (queue wait excluded). It is TransferTime
// plus Reserve.
func (l *Link) ReserveAt(earliest, size, latency, eff float64) (float64, float64) {
	return l.Reserve(earliest, l.TransferTime(size, latency, eff))
}

// Reserve reserves one transfer of precomputed duration dur (see
// TransferTime) that starts at max(earliest, drain time), and returns
// its start and end. A caller reserving a run of same-size transfers
// computes the duration once for the whole run, and each Reserve then
// equals the matching ReserveAt bit for bit.
func (l *Link) Reserve(earliest, dur float64) (float64, float64) {
	start := l.startAt(earliest)
	end := start + dur
	l.busyUntil = end
	l.busy.add(start, end)
	return start, end
}

// startAt is the start of a transfer that may begin no earlier than
// earliest: max(earliest, drain time).
func (l *Link) startAt(earliest float64) float64 {
	if l.busyUntil > earliest {
		return l.busyUntil
	}
	return earliest
}

// ReserveRun reserves len(ends) back-to-back transfers of duration dur,
// the first starting no earlier than earliest, and writes each
// completion time into ends. It returns the first start. It equals
// len(ends) successive ReserveAt calls, each starting no earlier than
// the previous end, bit for bit: the first start is max(earliest, drain
// time) and every later start is exactly the previous end, so the busy
// meter merges the run into one span and records it with one add.
func (l *Link) ReserveRun(earliest, dur float64, ends []float64) float64 {
	start := l.startAt(earliest)
	end := start
	for i := range ends {
		end += dur
		ends[i] = end
	}
	if len(ends) > 0 {
		l.busyUntil = end
		l.busy.add(start, end)
	}
	return start
}

// BusyUntil reports the time at which the link drains.
func (l *Link) BusyUntil() float64 { return l.busyUntil }

// BusyTotal returns the link's summed busy time.
func (l *Link) BusyTotal() float64 { return l.busy.total() }

// OpenWindow starts summing the link's busy time from a on, and
// CloseWindow ends the window at b and returns the busy time inside
// [a, b). The sum is exact under busyMeter's contract, which the link
// asserts with panics. A caller keeps it when each reservation's earliest
// time is at most the caller's cursor once the reserving call returns,
// and the window opens at the cursor and closes at a later cursor.
func (l *Link) OpenWindow(a float64) { l.busy.openWindow(a) }

// CloseWindow ends the window OpenWindow opened at b; see OpenWindow.
func (l *Link) CloseWindow(b float64) float64 { return l.busy.closeWindow(b) }

// Reset clears busy accounting and queue state for a fresh run.
func (l *Link) Reset() {
	l.busyUntil = 0
	l.busy = busyMeter{}
}
