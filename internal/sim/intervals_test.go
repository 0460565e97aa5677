package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Interval is a half-open span [Start, End) of virtual time in ns.
type Interval struct {
	Start, End float64
}

// IntervalSet is the list-based busy accounting the links kept before
// busyMeter: every merged span, stored. It stays as the meter's oracle.
// Intervals must be added in non-decreasing start order; overlapping or
// adjacent ones merge, so the stored spans are disjoint and ascending.
type IntervalSet struct {
	ivs []Interval
}

// Add records [start, end) under the meter's merge rule, panicking on an
// out-of-order start as the meter does.
func (s *IntervalSet) Add(start, end float64) {
	if end <= start {
		return
	}
	n := len(s.ivs)
	if n > 0 {
		if start < s.ivs[n-1].Start {
			panic(fmt.Sprintf("interval added at %v before previous start %v", start, s.ivs[n-1].Start))
		}
		if start <= s.ivs[n-1].End {
			s.ivs[n-1].End = max(s.ivs[n-1].End, end)
			return
		}
	}
	s.ivs = append(s.ivs, Interval{start, end})
}

// Total returns the summed length of the spans, in span order.
func (s *IntervalSet) Total() float64 {
	sum := 0.0
	for _, iv := range s.ivs {
		sum += iv.End - iv.Start
	}
	return sum
}

// Overlap returns the busy time inside [a, b): every span's positive
// clipped length, added in span order.
func (s *IntervalSet) Overlap(a, b float64) float64 {
	if b <= a {
		return 0
	}
	sum := 0.0
	for _, iv := range s.ivs {
		lo, hi := iv.Start, iv.End
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			sum += hi - lo
		}
	}
	return sum
}

// Count returns the number of merged spans.
func (s *IntervalSet) Count() int { return len(s.ivs) }

// spansFrom decodes data as (gap, length) byte pairs into a FIFO span
// stream: starts are non-decreasing, as Add requires. Irregular scale
// factors give non-integral endpoints; small gaps make spans overlap or
// abut the previous one and merge, and zero lengths are ignored.
func spansFrom(data []byte) []Interval {
	var spans []Interval
	start := 0.0
	for i := 0; i+1 < len(data); i += 2 {
		start += float64(data[i]) * 0.37
		spans = append(spans, Interval{start, start + float64(data[i+1])*0.61})
	}
	return spans
}

// closedEnds returns, for each prefix spans[:k], the end of the last
// closed merged span (NaN when none has closed): every merged span of the
// prefix but the last one is closed.
func closedEnds(spans []Interval) []float64 {
	var set IntervalSet
	ends := []float64{math.NaN()}
	for _, sp := range spans {
		set.Add(sp.Start, sp.End)
		end := math.NaN()
		if n := set.Count(); n > 1 {
			end = set.ivs[n-2].End
		}
		ends = append(ends, end)
	}
	return ends
}

// checkWindow replays spans through a meter with the window [a, b)
// placed where the contract allows it, and requires the meter's total and
// window sum to equal the list's Total and Overlap bit for bit. The
// window closes before the first span that starts at or after b (clause
// c), so every span closed inside it ends before b (clause b), and opens
// either before every span or as late as clause (a) allows, so spans both
// close before it and close inside it. When a bound is NaN, which is no
// time, only the total is compared.
func checkWindow(t *testing.T, spans []Interval, a, b float64) {
	t.Helper()
	var list IntervalSet
	for _, sp := range spans {
		list.Add(sp.Start, sp.End)
	}
	var m busyMeter
	for _, sp := range spans {
		m.add(sp.Start, sp.End)
	}
	if got, want := m.total(), list.Total(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("total %v, list %v over %v", got, want, list.ivs)
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return
	}
	ends := closedEnds(spans)
	j := 0
	for j < len(spans) && spans[j].Start < b {
		j++
	}
	late := 0
	for late < j && !(ends[late+1] > a) {
		late++
	}
	want := list.Overlap(a, b)
	for _, open := range []int{0, late} {
		var m busyMeter
		for k, sp := range spans {
			if k == open {
				m.openWindow(a)
			}
			if k == j {
				if got := m.closeWindow(b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("window [%v, %v) opened before span %d: %v, list %v over %v", a, b, open, got, want, list.ivs)
				}
			}
			m.add(sp.Start, sp.End)
		}
		if open == len(spans) {
			m.openWindow(a)
		}
		if j == len(spans) {
			if got := m.closeWindow(b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window [%v, %v) opened before span %d: %v, list %v over %v", a, b, open, got, want, list.ivs)
			}
		}
	}
}

// TestOverlapMatchesLinearScan is the property test of the meter. Over
// random span streams and windows — bounds on, inside, between and beyond
// the spans, inverted and infinite — the meter's total and window sum
// equal the list's bit for bit. Then a link driven the way a CUDA context
// drives one, many kernel windows per run, must give every window the
// list's overlap over the run's complete span list.
func TestOverlapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.Inf(-1), math.Inf(1), 0, -1}
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 2*rng.Intn(40))
		rng.Read(data)
		spans := spansFrom(data)
		points := append([]float64(nil), special...)
		for _, sp := range spans {
			points = append(points, sp.Start, sp.End, (sp.Start+sp.End)/2)
		}
		for k := 0; k < 20; k++ {
			pick := func() float64 {
				if rng.Intn(3) == 0 {
					return rng.Float64() * 0.61 * float64(len(data)) * 128
				}
				return points[rng.Intn(len(points))]
			}
			checkWindow(t, spans, pick(), pick())
		}
	}

	for trial := 0; trial < 500; trial++ {
		l, list := NewLink(1+rng.Float64()*30), &IntervalSet{}
		reserve := func(earliest float64) float64 {
			s, e := l.ReserveAt(earliest, float64(1+rng.Intn(1<<16)), rng.Float64()*1e3, 0.1+0.9*rng.Float64())
			list.Add(s, e)
			return e
		}
		// Each reservation's earliest time is at least the cursor, and the
		// cursor reaches it when the call returns: the contract a context
		// keeps.
		type window struct{ a, b, got float64 }
		var windows []window
		cursor := 0.0
		for step := rng.Intn(30); step > 0; step-- {
			if rng.Intn(3) > 0 {
				earliest := cursor + rng.Float64()*2e4
				end := reserve(earliest)
				cursor = earliest + rng.Float64()*1e4
				if rng.Intn(2) == 0 {
					cursor = end // a synchronous copy waits for its transfer
				}
				continue
			}
			w := window{a: cursor}
			l.OpenWindow(cursor)
			for k := rng.Intn(6); k > 0; k-- {
				earliest := cursor + rng.Float64()*5e3
				reserve(earliest)
				cursor = earliest + rng.Float64()*2e4
			}
			cursor += rng.Float64() * 1e3
			w.b, w.got = cursor, l.CloseWindow(cursor)
			windows = append(windows, w)
		}
		for _, w := range windows {
			if want := list.Overlap(w.a, w.b); math.Float64bits(w.got) != math.Float64bits(want) {
				t.Fatalf("trial %d: window [%v, %v) summed %v, list %v over %v", trial, w.a, w.b, w.got, want, list.ivs)
			}
		}
		if got, want := l.BusyTotal(), list.Total(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: busy total %v, list %v", trial, got, want)
		}
	}
}

// FuzzOverlap fuzzes the same property over arbitrary span streams and
// window bounds. Its seed corpus lives in testdata/fuzz/FuzzOverlap.
func FuzzOverlap(f *testing.F) {
	f.Add([]byte{0, 10, 20, 10}, 5.0, 25.0)
	f.Fuzz(func(t *testing.T, data []byte, a, b float64) {
		checkWindow(t, spansFrom(data), a, b)
	})
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestMeterOpenAfterClosedSpanPanics breaks clause (a): [0, 10) has closed
// when a window opens at 5, so the meter would miss the 5 ns of it the
// window holds.
func TestMeterOpenAfterClosedSpanPanics(t *testing.T) {
	var m busyMeter
	m.add(0, 10)
	m.add(20, 30)
	mustPanic(t, "opening a window before a closed span's end", func() { m.openWindow(5) })
}

// TestMeterSpanClosedPastWindowPanics breaks clause (b): [0, 10) closes
// inside the window [0, 5), so the meter would count all 10 ns of it.
func TestMeterSpanClosedPastWindowPanics(t *testing.T) {
	var m busyMeter
	m.openWindow(0)
	m.add(0, 10)
	m.add(20, 30)
	mustPanic(t, "closing a window before a span closed inside it ends", func() { m.closeWindow(5) })
}

// TestMeterSpanBeforeClosedWindowPanics breaks clause (c): [3, 8) starts
// inside the closed window [0, 5), which would never count its 2 ns.
func TestMeterSpanBeforeClosedWindowPanics(t *testing.T) {
	var m busyMeter
	m.openWindow(0)
	m.add(0, 1)
	m.closeWindow(5)
	mustPanic(t, "adding a span before the last window's end", func() { m.add(3, 8) })
}
