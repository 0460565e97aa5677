package sim

import (
	"math"
	"math/rand"
	"testing"
)

// linearOverlap is the full-scan Overlap the binary-searched window
// replaced, kept as the reference: it visits every interval and adds
// each positive clipped length in set order.
func linearOverlap(ivs []Interval, a, b float64) float64 {
	if b <= a {
		return 0
	}
	sum := 0.0
	for _, iv := range ivs {
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

// intervalsFrom decodes data as (gap, length) byte pairs into an
// interval set built through Add, so starts are non-decreasing as Add
// requires. Irregular scale factors give non-integral endpoints; small
// gaps make adds overlap or abut the previous interval and merge, and
// zero lengths are ignored by Add.
func intervalsFrom(data []byte) *IntervalSet {
	var s IntervalSet
	start := 0.0
	for i := 0; i+1 < len(data); i += 2 {
		start += float64(data[i]) * 0.37
		s.Add(start, start+float64(data[i+1])*0.61)
	}
	return &s
}

// checkOverlap asserts Overlap equals the reference bit for bit.
func checkOverlap(t *testing.T, s *IntervalSet, a, b float64) {
	t.Helper()
	got, want := s.Overlap(a, b), linearOverlap(s.ivs, a, b)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Overlap(%v, %v) = %v, full scan gives %v over %v", a, b, got, want, s.ivs)
	}
}

// TestOverlapMatchesLinearScan is the property test of the window
// search: over random sets and windows — bounds on, inside, between and
// beyond the intervals, inverted, infinite and NaN — Overlap returns
// exactly the full scan's float.
func TestOverlapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, -1}
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 2*rng.Intn(40))
		rng.Read(data)
		s := intervalsFrom(data)
		var points []float64
		for _, iv := range s.ivs {
			points = append(points, iv.Start, iv.End, (iv.Start+iv.End)/2)
		}
		points = append(points, special...)
		for k := 0; k < 20; k++ {
			pick := func() float64 {
				if rng.Intn(3) == 0 {
					return rng.Float64() * 0.61 * float64(len(data)) * 128
				}
				return points[rng.Intn(len(points))]
			}
			checkOverlap(t, s, pick(), pick())
		}
	}
}

// FuzzOverlap fuzzes the same property over arbitrary interval layouts
// and window bounds. Its seed corpus lives in testdata/fuzz/FuzzOverlap.
func FuzzOverlap(f *testing.F) {
	f.Add([]byte{0, 10, 20, 10}, 5.0, 25.0)
	f.Fuzz(func(t *testing.T, data []byte, a, b float64) {
		checkOverlap(t, intervalsFrom(data), a, b)
	})
}
