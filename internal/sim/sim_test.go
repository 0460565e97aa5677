package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: FIFO
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 10 {
		t.Errorf("final clock = %v, want 10", e.Now())
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var times []float64
	e.After(3, func() {
		times = append(times, e.Now())
		e.After(4, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 3 || times[1] != 7 {
		t.Errorf("times = %v, want [3 7]", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// Property: events fire in non-decreasing timestamp order no matter the
// insertion order.
func TestQuickEventOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []float64
		for _, r := range raw {
			at := float64(r)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetMergeAndTotal(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(10, 20) // adjacent: merges
	s.Add(30, 40)
	s.Add(35, 50) // overlapping: merges
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2: %v", s.Count(), s.Intervals())
	}
	if got := s.Total(); got != 40 {
		t.Errorf("total = %v, want 40", got)
	}
	s.Add(60, 60) // zero length ignored
	if s.Count() != 2 {
		t.Errorf("zero-length interval should be ignored")
	}
}

// TestIntervalSetOutOfOrderPanics pins the FIFO ordering contract: adds
// whose start precedes the previous interval's start indicate a broken
// cost model and must panic instead of silently widening the previous
// interval.
func TestIntervalSetOutOfOrderPanics(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order Add should panic")
			}
		}()
		s.Add(5, 8)
	}()
	// Overlapping-but-ordered adds still merge without panicking.
	s.Add(15, 30)
	if s.Count() != 1 || s.Total() != 20 {
		t.Errorf("merge after ordered overlap: count=%d total=%v", s.Count(), s.Total())
	}
}

func TestIntervalSetOverlap(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	cases := []struct {
		a, b, want float64
	}{
		{0, 10, 10},
		{5, 25, 10}, // 5 from first, 5 from second
		{10, 20, 0}, // gap
		{-5, 100, 20},
		{25, 25, 0},
	}
	for _, c := range cases {
		if got := s.Overlap(c.a, c.b); got != c.want {
			t.Errorf("Overlap(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLinkFIFO(t *testing.T) {
	l := NewLink("pcie", 10) // 10 bytes/ns
	s0, e0 := l.ReserveAt(0, 1000, 0, 1)
	s1, e1 := l.ReserveAt(0, 1000, 0, 1)
	if s0 != 0 || e0 != 100 || s1 != 100 || e1 != 200 {
		t.Errorf("spans = [%v %v) [%v %v), want [0 100) [100 200)", s0, e0, s1, e1)
	}
	if got := l.Busy().Total(); got != 200 {
		t.Errorf("busy total = %v, want 200", got)
	}
}

func TestLinkLatencyAndEfficiency(t *testing.T) {
	l := NewLink("pcie", 10)
	// 1000 bytes at 50% efficiency = 200ns service + 40ns latency.
	_, end := l.ReserveAt(0, 1000, 40, 0.5)
	if end != 240 {
		t.Errorf("end = %v, want 240", end)
	}
	if got := l.TransferTime(1000, 40, 0.5); got != 240 {
		t.Errorf("TransferTime = %v, want 240", got)
	}
}

func TestLinkQueuesBehindBusy(t *testing.T) {
	l := NewLink("x", 1)
	l.ReserveAt(0, 100, 0, 1) // busy until 100
	if start, end := l.ReserveAt(50, 10, 0, 1); start != 100 || end != 110 {
		t.Errorf("queued transfer [%v, %v), want [100, 110)", start, end)
	}
	// A transfer whose earliest lies past the drain time starts there.
	if start, end := l.ReserveAt(200, 10, 0, 1); start != 200 || end != 210 {
		t.Errorf("late transfer [%v, %v), want [200, 210)", start, end)
	}
}

func TestLinkReset(t *testing.T) {
	l := NewLink("x", 1)
	l.ReserveAt(0, 100, 0, 1)
	l.Reset()
	if l.BusyUntil() != 0 || l.Busy().Total() != 0 {
		t.Errorf("reset link should be idle")
	}
}

func TestLinkInvalidArgs(t *testing.T) {
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() { recover() }()
			NewLink("bad", bad)
			t.Errorf("NewLink with bw %v should panic", bad)
		}()
	}
	l := NewLink("ok", 1)
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() { recover() }()
			l.TransferTime(10, 0, bad)
			t.Errorf("efficiency %v should panic", bad)
		}()
	}
}

// Property: total busy time of a FIFO link equals the sum of service
// times when transfers never overlap (they cannot, by FIFO construction).
func TestQuickLinkBusyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		l := NewLink("x", 2)
		total := 0.0
		n := 1 + rng.Intn(20)
		for j := 0; j < n; j++ {
			size := float64(1 + rng.Intn(1000))
			total += l.TransferTime(size, 0, 1)
			l.ReserveAt(0, size, 0, 1)
		}
		if math.Abs(l.Busy().Total()-total) > 1e-6 {
			t.Fatalf("busy %v != sum of service %v", l.Busy().Total(), total)
		}
		if math.Abs(l.BusyUntil()-total) > 1e-6 {
			t.Fatalf("drain time %v != %v (back-to-back FIFO)", l.BusyUntil(), total)
		}
	}
}

// TestReserveRunMatchesReserveAt pins the chain reservation to its
// definition: ReserveRun(earliest, dur, ends) equals len(ends)
// successive ReserveAt calls, the first at earliest and each later one at
// the previous end, bit for bit — first start, every end, drain time and
// the merged busy set — from random link states, with earliest behind
// or ahead of the drain time.
func TestReserveRunMatchesReserveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		bw := 1 + rng.Float64()*40
		run, ref := NewLink("run", bw), NewLink("ref", bw)
		at := 0.0
		for k := rng.Intn(4); k > 0; k-- {
			at += rng.Float64() * 5e5
			size, eff := float64(1+rng.Intn(4<<20)), 0.1+0.9*rng.Float64()
			run.ReserveAt(at, size, 0, eff)
			ref.ReserveAt(at, size, 0, eff)
		}
		earliest := rng.Float64() * 2 * run.BusyUntil()
		if rng.Intn(4) == 0 {
			earliest = run.BusyUntil() - 1 // chain starts behind the drain time
		}
		size, eff := float64(1+rng.Intn(4<<20)), 0.1+0.9*rng.Float64()
		ends := make([]float64, rng.Intn(40))

		start := run.ReserveRun(earliest, ref.TransferTime(size, 0, eff), ends)

		next := earliest
		for k := range ends {
			s, e := ref.ReserveAt(next, size, 0, eff)
			if k == 0 && s != start {
				t.Fatalf("trial %d: first start %v, ReserveAt %v", trial, start, s)
			}
			if ends[k] != e {
				t.Fatalf("trial %d: end %d is %v, ReserveAt %v", trial, k, ends[k], e)
			}
			next = e
		}
		if run.BusyUntil() != ref.BusyUntil() {
			t.Fatalf("trial %d: drain time %v, ReserveAt %v", trial, run.BusyUntil(), ref.BusyUntil())
		}
		got, want := run.Busy().Intervals(), ref.Busy().Intervals()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d busy spans, ReserveAt %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: busy span %d is %v, ReserveAt %v", trial, k, got[k], want[k])
			}
		}
	}
}

// TestReserveMatchesReserveAt pins the precomputed-duration reservation
// to its definition: a run of Reserve calls sharing one TransferTime
// equals the same run of ReserveAt calls bit for bit — every start and
// end, the drain time and the busy set — from random link states, with
// each earliest behind or ahead of the drain time.
func TestReserveMatchesReserveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		bw := 1 + rng.Float64()*40
		res, ref := NewLink("reserve", bw), NewLink("ref", bw)
		at := 0.0
		for k := rng.Intn(4); k > 0; k-- {
			at += rng.Float64() * 5e5
			size, eff := float64(1+rng.Intn(4<<20)), 0.1+0.9*rng.Float64()
			res.ReserveAt(at, size, 0, eff)
			ref.ReserveAt(at, size, 0, eff)
		}
		size, latency, eff := float64(1+rng.Intn(4<<20)), rng.Float64()*2e3, 0.1+0.9*rng.Float64()
		dur := res.TransferTime(size, latency, eff)
		for k := rng.Intn(40); k > 0; k-- {
			earliest := rng.Float64() * 2 * res.BusyUntil()
			if rng.Intn(4) == 0 {
				earliest = res.BusyUntil() - 1 // queues behind the drain time
			}
			s, e := res.Reserve(earliest, dur)
			ws, we := ref.ReserveAt(earliest, size, latency, eff)
			if s != ws || e != we {
				t.Fatalf("trial %d: Reserve [%v, %v), ReserveAt [%v, %v)", trial, s, e, ws, we)
			}
		}
		if res.BusyUntil() != ref.BusyUntil() {
			t.Fatalf("trial %d: drain time %v, ReserveAt %v", trial, res.BusyUntil(), ref.BusyUntil())
		}
		got, want := res.Busy().Intervals(), ref.Busy().Intervals()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d busy spans, ReserveAt %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: busy span %d is %v, ReserveAt %v", trial, k, got[k], want[k])
			}
		}
	}
}
