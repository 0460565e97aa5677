package sim

import "fmt"

// busyMeter streams the busy time of a FIFO resource. Spans arrive in
// non-decreasing start order, and overlapping or adjacent ones merge;
// instead of storing the merged spans the meter keeps constant-size
// state: the summed length of the spans already closed, the one span
// still open, and at most one open window whose overlap with the busy
// time it sums.
//
// The meter's answers are those of a list of the merged spans, bit for
// bit: the total is the closed lengths summed in span order plus the
// open span's length, and a window's overlap adds each merged span's
// clipped length in span order, the terms and the order a scan of the
// list adds. That holds under a contract, which the meter asserts with
// panics:
//
//	(a) when a window opens, no closed span ends after its start;
//	(b) when a window closes, no span closed inside it ends after its
//	    end (unless it ends by the window's start, and adds nothing);
//	(c) no span starts before the end of the last closed window.
//
// Under (a) the spans closed before a window end before it, under (b)
// those closed inside it end inside it, and under (c) those added after
// it start after it, so while the window is open the meter sees every
// span a list would count for it, each one whole.
type busyMeter struct {
	closed   float64 // summed lengths of the closed spans, in span order
	closedAt float64 // end of the last closed span, once closed > 0
	s, e     float64 // the open span [s, e); e == s until the first span

	a, w     float64 // the open window's start, and its closed spans' overlap
	inWindow bool
	after    float64 // end of the last closed window, once windowed
	windowed bool
}

// add records the busy span [start, end). Zero- or negative-length spans
// are ignored. Starts must be non-decreasing: FIFO links reserve time
// monotonically, so an out-of-order add indicates a broken cost model and
// panics (like Engine.At does for past scheduling) rather than being
// silently merged into the open span.
func (m *busyMeter) add(start, end float64) {
	if end <= start {
		return
	}
	if m.windowed && start < m.after {
		panic(fmt.Sprintf("sim: busy span at %v starts before the window closed at %v", start, m.after))
	}
	if m.e > m.s {
		if start < m.s {
			panic(fmt.Sprintf("sim: busy span added at %v before previous start %v", start, m.s))
		}
		if start <= m.e {
			// Overlapping or adjacent: merge into the open span.
			if end > m.e {
				m.e = end
			}
			return
		}
		m.closed += m.e - m.s
		m.closedAt = m.e
		if m.inWindow {
			if lo := max(m.s, m.a); m.e > lo {
				m.w += m.e - lo
			}
		}
	}
	m.s, m.e = start, end
}

// total returns the summed busy time of every span added so far.
func (m *busyMeter) total() float64 { return m.closed + (m.e - m.s) }

// openWindow starts summing the busy time from a on. It panics when a
// window is already open, or when a closed span ends after a (clause a).
func (m *busyMeter) openWindow(a float64) {
	if m.inWindow {
		panic("sim: busy window opened twice")
	}
	if m.closed > 0 && m.closedAt > a {
		panic(fmt.Sprintf("sim: busy window opens at %v before a closed span's end %v", a, m.closedAt))
	}
	m.a, m.w, m.inWindow = a, 0, true
}

// closeWindow ends the open window at b and returns the busy time inside
// [a, b). It panics when no window is open, or when a span closed inside
// the window ends after b (clause b). Spans added later may not start
// before b (clause c).
func (m *busyMeter) closeWindow(b float64) float64 {
	if !m.inWindow {
		panic("sim: busy window closed while none is open")
	}
	if m.closed > 0 && m.closedAt > b && m.closedAt > m.a {
		panic(fmt.Sprintf("sim: busy window closes at %v before a span closed inside it ends at %v", b, m.closedAt))
	}
	w := m.w
	if lo, hi := max(m.s, m.a), min(m.e, b); hi > lo {
		w += hi - lo
	}
	m.inWindow, m.windowed, m.after = false, true, b
	return w
}
