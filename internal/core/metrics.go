package core

import (
	"time"

	"uvmasim/internal/metrics"
)

// This file threads the process-wide metrics registry (internal/metrics)
// through the experiment harness: the cell cache's two tiers, the
// parallel executor's simulation traffic, and — since the intra-cell
// fan-out — the iteration plane. Instruments live on the shared
// cellCache — the same place as the existing atomic hit/miss counters —
// so a whole Runner family (value copies sharing one cache) reports into
// one set of series. All hooks are nil-safe, and every per-iteration
// operation is an alloc-free atomic update, so the zero-alloc steady
// state of the iteration loop survives instrumentation (enforced by
// alloc_test.go).

// cellInstruments is the set of executor/cache metric hooks. The zero
// value (all nil) is the disabled state.
type cellInstruments struct {
	memHits     *metrics.Counter
	memMisses   *metrics.Counter
	storeHits   *metrics.Counter
	storeMisses *metrics.Counter
	simulated   *metrics.Counter
	inFlight    *metrics.Gauge
	cellSeconds *metrics.Histogram
	// Iteration plane: how many iterations are simulating right now
	// across all worker contexts, and how long each one took. Observed
	// inside cellLoop with plain atomics — no allocation, no lock.
	itersInFlight *metrics.Gauge
	iterSeconds   *metrics.Histogram
}

// noInstruments is the shared disabled instrument set for runners
// without a cell cache (zero-value Runners in tests).
var noInstruments cellInstruments

// iterSecondsBuckets resolves single iterations, which run one to three
// orders of magnitude faster than whole 30-iteration cells
// (DefSecondsBuckets starts at 500µs — too coarse for a 40µs
// iteration).
var iterSecondsBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// timedCompute executes one cell simulation under the executor
// instruments: the in-flight gauge, the wall-time histogram and the
// simulated-cells counter. The instruments are nil-safe no-ops when
// unregistered.
func (r *Runner) timedCompute(compute func() (Result, error)) (Result, error) {
	inst := &noInstruments
	if r.cache != nil {
		inst = &r.cache.inst
	}
	inst.inFlight.Add(1)
	start := time.Now()
	res, err := compute()
	inst.inFlight.Add(-1)
	inst.cellSeconds.Observe(time.Since(start).Seconds())
	inst.simulated.Inc()
	return res, err
}

// InstrumentMetrics registers the harness's cache and executor series
// with reg and attaches them to the runner's shared cell cache, so every
// study on this Runner family reports cache traffic, store traffic,
// per-cell simulation wall time and per-iteration wall time. Call it
// once, before running studies (the hooks are read concurrently by
// executor workers afterwards). A nil registry, or a cache-disabled path
// (Cache=false, TraceHook), stays unobserved. Counter values mirror
// CacheHits/CacheMisses/StoreHits/StoreMisses; the histograms and gauges
// cover only actually simulated cells — store hits resolve inside the
// singleflight slot without touching them, which is what makes the
// warm-hit vs cold-simulation split visible on a /metrics dashboard.
func (r *Runner) InstrumentMetrics(reg *metrics.Registry) {
	if reg == nil || r.cache == nil {
		return
	}
	r.cache.inst = cellInstruments{
		memHits: reg.Counter("uvmbench_cell_cache_hits_total",
			"Cell lookups served by the in-memory cell cache."),
		memMisses: reg.Counter("uvmbench_cell_cache_misses_total",
			"Cell lookups that missed the in-memory cell cache."),
		storeHits: reg.Counter("uvmbench_store_hits_total",
			"In-memory misses served by the persistent cell store."),
		storeMisses: reg.Counter("uvmbench_store_misses_total",
			"In-memory misses that also missed the persistent store and simulated."),
		simulated: reg.Counter("uvmbench_cells_simulated_total",
			"Measurement cells actually simulated (not replayed from any cache tier)."),
		inFlight: reg.Gauge("uvmbench_cells_inflight",
			"Measurement cells currently simulating on the parallel executor."),
		cellSeconds: reg.Histogram("uvmbench_cell_seconds",
			"Wall time of one simulated measurement cell (all iterations).",
			metrics.DefSecondsBuckets),
		itersInFlight: reg.Gauge("uvmbench_iterations_inflight",
			"Cell iterations currently simulating across all worker contexts."),
		iterSeconds: reg.Histogram("uvmbench_iteration_seconds",
			"Wall time of one simulated cell iteration.",
			iterSecondsBuckets),
	}
}
