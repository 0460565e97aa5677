package core

import (
	"sort"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// This file implements cost-aware cell scheduling. The executor drains a
// study's cells in whatever order the dispatch hands them out; with
// submission order, a straggler (a Mega cell, an oversubscribed sweep
// point) dispatched last stretches the makespan by nearly its whole
// cost. Every study therefore asks lptOrder for a longest-processing-
// time-first dispatch order: cells are claimed most-expensive-first, so
// the stragglers start immediately and the cheap cells pack the tail.
//
// Costs come from a static model that estimates a cell's wall time from
// what dominates its simulation — per-chunk fault/migration work for
// managed setups, per-byte copy work for explicit ones, eviction churn
// above capacity for oversubscribed footprints. It is a pure function of
// the cell's structured identity, so a study's dispatch order is fixed
// for a given grid. Ordering affects only the makespan — results land in
// index slots and the singleflight cache counts per-key — so the model
// only needs to rank cells, not predict their cost.

// Static cost-model constants, calibrated against measured vector_seq
// iteration times (managed Mega ~660µs/iter at 16384 chunks, managed
// Large ~7µs at 256, explicit setups ~1-2µs at every size). Only ranks
// and rough proportions matter.
const (
	// costIterBase is the fixed per-iteration cost: context reset, host
	// randomization, kernel launch bookkeeping.
	costIterBase = 1e-6
	// costPerChunk is the per-2MiB-chunk cost of the managed fault /
	// migration path per data pass.
	costPerChunk = 0.03e-6
	// costPerCopiedGiB is the explicit-memcpy path's cost per GiB moved
	// (whole pipelined copies simulate in a handful of events, so the
	// explicit path is nearly flat in the footprint).
	costPerCopiedGiB = 0.5e-6
	// costEvictFactor multiplies chunk traffic once a footprint exceeds
	// managed capacity: every pass faults, migrates and writes back.
	costEvictFactor = 3.0
)

// chunkBytes is the managed-memory chunk the cost model prices.
func chunkBytes(cfg cuda.SystemConfig) float64 {
	if cfg.UVM.ChunkBytes <= 0 {
		return 2 << 20
	}
	return float64(cfg.UVM.ChunkBytes)
}

// cellSeconds estimates the simulation wall seconds of one measurement
// cell: iters iterations of a workload (or sweep point) at size under
// setup.
func cellSeconds(cfg cuda.SystemConfig, setup cuda.Setup, size workloads.Size, iters int) float64 {
	footprint := float64(size.Footprint())
	var perIter float64
	switch {
	case setup.ZeroCopy():
		// Zero-copy never faults or migrates: the simulation prices each
		// access over the link in one kernel event, so like the explicit
		// path it is nearly flat in the footprint.
		perIter = footprint / float64(1<<30) * costPerCopiedGiB
	case setup.SMCopy():
		// SM staging walks chunks like the fault path but without the
		// per-fault replay machinery, so per-chunk work is much cheaper.
		perIter = footprint / chunkBytes(cfg) * costPerChunk * 0.3
	case setup.Managed():
		perIter = footprint / chunkBytes(cfg) * costPerChunk
	default:
		perIter = footprint / float64(1<<30) * costPerCopiedGiB
	}
	return float64(max(iters, 1)) * (costIterBase + perIter)
}

// oversubSeconds estimates one oversubscription point: passes sweeps
// over ratio times the managed capacity. The cell is a single run
// regardless of the runner's iteration count (see oversubCell).
func oversubSeconds(cfg cuda.SystemConfig, ratio float64, passes int) float64 {
	perPass := ratio * float64(cfg.ManagedCapacity()) / chunkBytes(cfg) * costPerChunk
	if ratio > 1 {
		perPass *= costEvictFactor
	}
	return costIterBase + float64(passes)*perPass
}

// lptOrder builds a longest-processing-time-first dispatch order over n
// cells for forEachOrdered: indices sorted by descending cost, original
// order on ties (the stable sort keeps the schedule deterministic for a
// given cost vector). Returns nil — identity order — when ordering
// cannot help: one or two cells, or a serial executor.
func (r *Runner) lptOrder(n int, cost func(i int) float64) []int {
	if n <= 2 || r.parallelism() <= 1 {
		return nil
	}
	order := make([]int, n)
	costs := make([]float64, n)
	for i := range order {
		order[i] = i
		costs[i] = cost(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}
