package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestSharedLinkSoloMatchesCap pins the no-contention contract: a flow
// alone on the link runs at exactly its rate cap, so an uncontended
// transfer reproduces its measured solo duration.
func TestSharedLinkSoloMatchesCap(t *testing.T) {
	eng := New()
	l := NewSharedLink(eng, 26)
	var end float64
	l.Start(1e9, 13, func(e float64) { end = e })
	eng.Run()
	want := 1e9 / 13
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("solo flow end = %v, want %v", end, want)
	}
	if got := l.Delivered(); math.Abs(got-1e9) > 1e-3 {
		t.Fatalf("delivered = %v, want 1e9", got)
	}
}

// TestSharedLinkEqualSharing pins processor sharing: two link-limited
// flows of equal size starting together each get half the capacity and
// finish at 2*size/capacity.
func TestSharedLinkEqualSharing(t *testing.T) {
	eng := New()
	l := NewSharedLink(eng, 10)
	var e1, e2 float64
	l.Start(1000, 0, func(e float64) { e1 = e })
	l.Start(1000, 0, func(e float64) { e2 = e })
	eng.Run()
	if math.Abs(e1-200) > 1e-6 || math.Abs(e2-200) > 1e-6 {
		t.Fatalf("equal flows ended at %v, %v; want 200, 200", e1, e2)
	}
}

// TestSharedLinkCappedLeavesSlack pins water-filling: a flow capped
// below its fair share leaves the slack to the others instead of
// stranding it.
func TestSharedLinkCappedLeavesSlack(t *testing.T) {
	eng := New()
	l := NewSharedLink(eng, 8)
	var slow, fast float64
	l.Start(200, 2, func(e float64) { slow = e }) // capped at 2 B/ns
	l.Start(600, 0, func(e float64) { fast = e }) // link limited -> gets 6 B/ns
	eng.Run()
	if math.Abs(slow-100) > 1e-6 {
		t.Fatalf("capped flow ended at %v, want 100", slow)
	}
	if math.Abs(fast-100) > 1e-6 {
		t.Fatalf("uncapped flow ended at %v, want 100", fast)
	}
}

// randomScenario drives n seeded random flows through a shared link,
// probing the aggregate granted rate at every arrival, and returns the
// completion times plus the total bytes offered.
func randomScenario(t *testing.T, seed int64, n int) ([]float64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := New()
	const capacity = 26.0
	l := NewSharedLink(eng, capacity)
	ends := make([]float64, n)
	var total float64
	at := 0.0
	for i := 0; i < n; i++ {
		i := i
		bytes := 1e6 + rng.Float64()*5e8
		cap := capacity * (0.1 + rng.Float64()*1.5) // some above capacity
		total += bytes
		at += rng.Float64() * 1e6
		eng.At(at, func() {
			l.Start(bytes, cap, func(e float64) { ends[i] = e })
			// Invariant: granted rates never exceed the pool capacity,
			// checked at the worst moment — right after a join.
			if r := l.Rate(); r > capacity*(1+1e-9) {
				t.Errorf("aggregate rate %v exceeds capacity %v after join %d", r, capacity, i)
			}
		})
	}
	eng.Run()
	return ends, total
}

// TestSharedLinkProperties checks the arbitration invariants over many
// seeded random workloads: the aggregate granted rate never exceeds the
// capacity, every flow completes, and bandwidth shares conserve the
// total bytes offered.
func TestSharedLinkProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := New()
		const capacity = 26.0
		l := NewSharedLink(eng, capacity)
		n := 3 + rng.Intn(30)
		done := 0
		var total float64
		at := 0.0
		for i := 0; i < n; i++ {
			bytes := 1e6 + rng.Float64()*5e8
			cap := capacity * (0.1 + rng.Float64()*1.5)
			total += bytes
			at += rng.Float64() * 1e6
			eng.At(at, func() {
				l.Start(bytes, cap, func(e float64) { done++ })
				if r := l.Rate(); r > capacity*(1+1e-9) {
					t.Errorf("seed %d: aggregate rate %v exceeds capacity %v", seed, r, capacity)
				}
			})
		}
		eng.Run()
		if done != n {
			t.Fatalf("seed %d: %d of %d flows completed", seed, done, n)
		}
		if l.Active() != 0 {
			t.Fatalf("seed %d: %d flows still active after drain", seed, l.Active())
		}
		if got := l.Delivered(); math.Abs(got-total) > 1 {
			t.Fatalf("seed %d: delivered %v bytes, offered %v", seed, got, total)
		}
		// The link cannot have moved bytes faster than capacity allows:
		// busy time >= total/capacity.
		if busy := l.BusyTotal(); busy < total/capacity-1e-6 {
			t.Fatalf("seed %d: busy %v ns below the capacity bound %v", seed, busy, total/capacity)
		}
	}
}

// TestSharedLinkDeterminism runs one seeded random scenario twice and
// requires bit-identical completion times.
func TestSharedLinkDeterminism(t *testing.T) {
	a, _ := randomScenario(t, 7, 25)
	b, _ := randomScenario(t, 7, 25)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d completion differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSharedLinkChainedStarts pins re-entrancy: a done callback may
// immediately Start the next flow (the per-GPU transfer chains the
// scheduler builds).
func TestSharedLinkChainedStarts(t *testing.T) {
	eng := New()
	l := NewSharedLink(eng, 10)
	var ends []float64
	var chain func(e float64)
	left := 3
	chain = func(e float64) {
		ends = append(ends, e)
		left--
		if left > 0 {
			l.Start(100, 10, chain)
		}
	}
	l.Start(100, 10, chain)
	eng.Run()
	want := []float64{10, 20, 30}
	if len(ends) != len(want) {
		t.Fatalf("got %d completions, want %d", len(ends), len(want))
	}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-9 {
			t.Fatalf("completion %d = %v, want %v", i, ends[i], want[i])
		}
	}
}

// TestSharedLinkSubUlpResidue pins the termination guarantee against
// float residue: when a flow's residual drain time is smaller than the
// clock's ulp (now+dt == now), the link must complete it rather than
// reschedule a zero-width event at the same timestamp forever. Before
// the now+remaining/rate==now clause in complete, this test looped
// indefinitely.
func TestSharedLinkSubUlpResidue(t *testing.T) {
	eng := New()
	l := NewSharedLink(eng, 26)
	const epoch = 1e15 // ulp ~0.125 ns, far above 1 byte / 26 B/ns
	var end float64
	eng.At(epoch, func() {
		l.Start(1, 26, func(e float64) { end = e })
	})
	eng.Run()
	if end != epoch {
		t.Fatalf("sub-ulp flow completed at %v, want %v", end, epoch)
	}
	if l.Active() != 0 {
		t.Fatalf("%d flows still active after drain", l.Active())
	}
}

// TestSharedLinkLateEpochProperties reruns the random-contention
// invariants with arrivals offset deep into the timeline, where rate*dt
// debits leave residues that the absolute byte epsilon alone cannot
// absorb (the regime that hung full-length multigpu runs).
func TestSharedLinkLateEpochProperties(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := New()
		const capacity = 26.0
		l := NewSharedLink(eng, capacity)
		n := 3 + rng.Intn(20)
		done := 0
		var total float64
		at := 1e12
		for i := 0; i < n; i++ {
			bytes := 1e6 + rng.Float64()*5e8
			cap := capacity * (0.1 + rng.Float64()*1.5)
			total += bytes
			at += rng.Float64() * 1e6
			eng.At(at, func() {
				l.Start(bytes, cap, func(e float64) { done++ })
			})
		}
		eng.Run()
		if done != n {
			t.Fatalf("seed %d: %d of %d flows completed", seed, done, n)
		}
		if got := l.Delivered(); math.Abs(got-total) > 1 {
			t.Fatalf("seed %d: delivered %v bytes, offered %v", seed, got, total)
		}
	}
}

// TestSharedLinkZeroBytes pins the degenerate flow: zero bytes complete
// immediately at the current time.
func TestSharedLinkZeroBytes(t *testing.T) {
	eng := New()
	l := NewSharedLink(eng, 10)
	fired := false
	eng.At(5, func() {
		l.Start(0, 10, func(e float64) {
			fired = true
			if e != 5 {
				t.Errorf("zero-byte flow completed at %v, want 5", e)
			}
		})
	})
	eng.Run()
	if !fired {
		t.Fatal("zero-byte flow never completed")
	}
}
