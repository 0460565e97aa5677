package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/metrics"
	"uvmasim/internal/workloads"
)

// Alloc-ceiling regression tests for the GC-free hot loop: once a cell's
// context has warmed up its arenas (node arena, region free list, Buffer
// pool, host/device allocator storage, dirty bitmaps, demand scratch), a
// simulated iteration must not allocate at all. The assertions encode
// that as iteration-count independence — the per-call allocation count
// of measureCell is the same fixed constant (the Breakdowns slice and
// its kin) at 2 and at 12 iterations — plus absolute ceilings on both
// the steady-state constant and the one-time warm-up.

const (
	// steadyCeiling bounds measureCell's fixed per-call overhead (slices
	// sized by iteration count are one allocation regardless of length).
	steadyCeiling = 8
	// warmCeiling bounds the first-ever cell of a fresh runner: context
	// construction, arena growth to the workload's footprint, and the
	// result slices. Measured ~1.1e4 for vector_seq/Large; the bound
	// leaves headroom without letting an accidental per-chunk or
	// per-iteration allocation (~1e5 and up) slip through.
	warmCeiling = 40000
)

func allocTestRunner() *Runner {
	r := NewRunner()
	r.Parallelism = 1
	r.Cache = false
	return r
}

func TestMeasureCellSteadyStateAllocFree(t *testing.T) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		t.Fatal(err)
	}
	for _, setup := range cuda.Registered() {
		setup := setup
		t.Run(setup.String(), func(t *testing.T) {
			r := allocTestRunner()
			perCall := func(iters int) float64 {
				r.Iterations = iters
				return testing.AllocsPerRun(3, func() {
					if _, err := r.measureCell(w, setup, workloads.Large); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Warm both iteration counts before comparing (AllocsPerRun
			// itself runs one extra warm-up call).
			perCall(12)
			few := perCall(2)
			many := perCall(12)
			if few != many {
				t.Errorf("allocations grow with iteration count: %.1f per call at 2 iters, %.1f at 12"+
					" — the iteration loop is no longer alloc-free", few, many)
			}
			if many > steadyCeiling {
				t.Errorf("steady-state measureCell allocates %.1f per call, ceiling %d", many, steadyCeiling)
			}
		})
	}
}

func TestMeasureCellWarmupAllocCeiling(t *testing.T) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		t.Fatal(err)
	}
	for _, setup := range cuda.Registered() {
		setup := setup
		t.Run(setup.String(), func(t *testing.T) {
			r := allocTestRunner()
			r.Iterations = 2
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := r.measureCell(w, setup, workloads.Large); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			warm := after.Mallocs - before.Mallocs
			if warm > warmCeiling {
				t.Errorf("cold-start measureCell allocated %d times, ceiling %d", warm, warmCeiling)
			}
		})
	}
}

// TestInstrumentedCellAllocIterationIndependent: with the metrics
// registry attached (the serve configuration), per-cell allocation cost
// through the cached() path must stay independent of the iteration
// count — the instruments observe iterations with plain atomics, never
// allocating, so the alloc-free hot loop survives instrumentation.
func TestInstrumentedCellAllocIterationIndependent(t *testing.T) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.Parallelism = 1
	r.InstrumentMetrics(metrics.New())
	// The comparison below is tight (+2 allocations of slack). Allocation
	// counts are process-global, so background GC work landing inside the
	// longer 12-iteration samples — much more likely under -race, which
	// slows the simulation an order of magnitude — would bias them up.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := 0
	perCell := func(iters int) float64 {
		r.Iterations = iters
		return testing.AllocsPerRun(3, func() {
			// A fresh cache kind per call: every cell simulates (warm
			// contexts and reseed cache, cold cell-cache slot). Varying
			// the kind rather than the seed keeps the per-seed generator
			// cache warm, so only the cell-level bookkeeping is measured.
			n++
			kind := fmt.Sprintf("alloc-test-%d", n)
			_, err := r.cached(kind, cuda.UVMPrefetchAsync, workloads.Large, func() (Result, error) {
				return r.measureCell(w, cuda.UVMPrefetchAsync, workloads.Large)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	// Every call grows the cell-cache map by one entry,
	// so a map rehash can land inside any one sample and spike its
	// average. The minimum of a few trials sheds those spikes — a real
	// per-iteration allocation inflates every trial, not just one.
	minCell := func(iters int) float64 {
		best := perCell(iters)
		for i := 0; i < 2; i++ {
			if v := perCell(iters); v < best {
				best = v
			}
		}
		return best
	}
	minCell(32)
	few := minCell(2)
	many := minCell(32)
	// The wide 2→32 spread separates signal from runtime noise: a real
	// per-iteration metric allocation adds ≥30 here, while the residual
	// jitter that survives min-of-trials (incremental map evacuation in
	// the growing cell-cache map, sudog churn when the race
	// detector makes lock handoffs block) measures ≤5.
	if many > few+10 {
		t.Errorf("instrumented cell allocations grow with iteration count: %.1f at 2 iters, %.1f at 32", few, many)
	}
	if many > steadyCeiling+32 {
		t.Errorf("instrumented cell allocates %.1f per call, ceiling %d", many, steadyCeiling+32)
	}
}

// TestFanoutCellSteadyStateAllocFree: with intra-cell fan-out active,
// the per-iteration loop inside each block must stay alloc-free. The
// fan-out itself costs a fixed per-block overhead (goroutine spawn,
// block closure), so the per-call constant is higher than the serial
// path's — but it must not scale with the iteration count.
func TestFanoutCellSteadyStateAllocFree(t *testing.T) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		t.Fatal(err)
	}
	r := allocTestRunner()
	r.Parallelism = 2
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := func(iters int) float64 {
		r.Iterations = iters
		return testing.AllocsPerRun(5, func() {
			if _, err := r.measureCell(w, cuda.UVMPrefetchAsync, workloads.Large); err != nil {
				t.Fatal(err)
			}
		})
	}
	minCall := func(iters int) float64 {
		best := perCall(iters)
		for i := 0; i < 2; i++ {
			if v := perCall(iters); v < best {
				best = v
			}
		}
		return best
	}
	minCall(32)
	few := minCall(4)
	many := minCall(32)
	// Goroutine scheduling makes the per-call constant noisy — a parked
	// worker's wake-up or a lock handoff forced to block (frequent under
	// -race on a loaded machine) can allocate scheduler bookkeeping. The
	// wide 4→32 spread keeps the check sharp anyway: a real
	// per-iteration allocation adds ≥28 here, the observed scheduler
	// jitter ≤10.
	if many > few+12 {
		t.Errorf("fan-out cell allocations grow with iteration count: %.1f per call at 4 iters, %.1f at 32", few, many)
	}
	if many > steadyCeiling+24 {
		t.Errorf("steady-state fan-out measureCell allocates %.1f per call, ceiling %d", many, steadyCeiling+24)
	}
}
