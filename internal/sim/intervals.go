package sim

import "fmt"

// Interval is a half-open span [Start, End) of virtual time in ns.
type Interval struct {
	Start, End float64
}

// Len returns the duration of the interval.
func (iv Interval) Len() float64 { return iv.End - iv.Start }

// IntervalSet accumulates busy intervals of a resource. Intervals must be
// added in non-decreasing start order (which FIFO links guarantee);
// overlapping or adjacent intervals are merged so the set stays compact.
// The stored intervals are therefore disjoint and ascending in both
// Start and End, which Overlap exploits to binary-search its window.
type IntervalSet struct {
	ivs []Interval
}

// Add records the busy span [start, end). Zero- or negative-length spans
// are ignored. Starts must be non-decreasing: FIFO links reserve time
// monotonically, so an out-of-order add indicates a broken cost model
// and panics (like Engine.At does for past scheduling) rather than being
// silently merged into the previous interval.
func (s *IntervalSet) Add(start, end float64) {
	if end <= start {
		return
	}
	n := len(s.ivs)
	if n > 0 {
		if start < s.ivs[n-1].Start {
			panic(fmt.Sprintf("sim: interval added at %v before previous start %v", start, s.ivs[n-1].Start))
		}
		if start <= s.ivs[n-1].End {
			// Overlapping or adjacent: merge with the previous interval.
			if end > s.ivs[n-1].End {
				s.ivs[n-1].End = end
			}
			return
		}
	}
	if n == cap(s.ivs) {
		// Double rather than take append's ~1.25x step for large sets:
		// a busy link records tens of thousands of intervals, and the
		// smaller steps copy the set about four times over as it grows.
		grown := make([]Interval, n, max(16, 2*n))
		copy(grown, s.ivs)
		s.ivs = grown
	}
	s.ivs = append(s.ivs, Interval{start, end})
}

// Total returns the summed busy time across all intervals.
func (s *IntervalSet) Total() float64 {
	sum := 0.0
	for _, iv := range s.ivs {
		sum += iv.Len()
	}
	return sum
}

// Overlap returns the amount of busy time that falls inside [a, b).
//
// Only intervals ending after a and starting before b contribute, and
// they form one contiguous run of the ascending set: a binary search
// finds the first interval ending after a and the walk stops at the first
// one starting at or after b. Every skipped interval would add nothing,
// so the sum adds the same terms in the same order as a scan of the whole
// set, bit for bit. The comparisons are phrased so a NaN bound skips
// nothing, which keeps even that case identical to the full scan.
func (s *IntervalSet) Overlap(a, b float64) float64 {
	if b <= a {
		return 0
	}
	first, end := 0, len(s.ivs)
	for first < end {
		mid := int(uint(first+end) >> 1)
		if s.ivs[mid].End <= a {
			first = mid + 1
		} else {
			end = mid
		}
	}
	sum := 0.0
	for _, iv := range s.ivs[first:] {
		if iv.Start >= b {
			break
		}
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

// Count returns the number of merged intervals in the set.
func (s *IntervalSet) Count() int { return len(s.ivs) }

// Reset clears the set for reuse.
func (s *IntervalSet) Reset() { s.ivs = s.ivs[:0] }

// Intervals returns a copy of the merged interval list.
func (s *IntervalSet) Intervals() []Interval {
	return append([]Interval(nil), s.ivs...)
}
