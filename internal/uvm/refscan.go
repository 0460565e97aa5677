package uvm

import "math"

// victimScan is the retained reference evictor: the pre-optimization
// full scan over every chunk of every region for the smallest last-use
// stamp. It is O(chunks) per call where the LRU ring is O(1), but selects
// the exact same victim: stamps are unique, and the ring is kept sorted
// by stamp. The differential test (differential_test.go) drives random
// workloads through both selectors and asserts identical victim order,
// arrival times, stats and trace events.
//
// Map iteration order over m.regions is not deterministic, but the
// strict `<` comparison on unique stamps makes the selected victim
// independent of it — a property the scan relied on all along.
func (m *Manager) victimScan() (*Region, int) {
	var victim *Region
	vIdx := -1
	var oldest int64 = math.MaxInt64
	for _, reg := range m.regions {
		for i := range reg.arrival {
			if reg.Resident(i) && reg.lastUse[i] < oldest {
				oldest = reg.lastUse[i]
				victim, vIdx = reg, i
			}
		}
	}
	return victim, vIdx
}

// SetReferenceEviction switches the manager to reference mode (on): the
// scan evictor selects victims and every residency path runs chunk by
// chunk. Off restores the O(1) LRU ring and the per-run paths. Both
// produce bit-identical simulation results; reference mode exists as the
// oracle for differential tests and benchmarks.
func (m *Manager) SetReferenceEviction(on bool) { m.scanEvict = on }
