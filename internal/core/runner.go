// Package core is the paper's experiment harness: it runs the benchmark
// suite under the registered data-transfer setups (the paper's five by
// default; see cuda.Registered and Runner.Setups), repeats each measurement
// with fresh noise draws (the paper's 30 iterations), aggregates
// execution-time breakdowns and hardware counters, and produces the data
// behind every table and figure of the evaluation (Table 3, Figures
// 4-13) plus the §6 inter-job pipeline model (Figure 14).
//
// Studies execute on a parallel cell executor (see executor.go) and
// memoize unique cells in a cross-figure cache. Both rely on one
// invariant that must be preserved when adding experiments: every
// stochastic draw of a cell is derived from that cell's own seed
// (seedFor), never from shared mutable state such as a study-wide RNG or
// a previous cell's context. Per-cell seeds are what make cells
// embarrassingly parallel, the merge order-independent, and a cell's
// Result a pure function of its cache key.
package core

import (
	"fmt"
	"time"

	"uvmasim/internal/counters"
	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/store"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads"
)

// DefaultIterations is the paper's repetition count per configuration.
const DefaultIterations = 30

// Runner executes measured workload runs.
type Runner struct {
	Config     cuda.SystemConfig
	Iterations int
	BaseSeed   int64

	// Setups is the ordered setup list every multi-setup study iterates
	// (figures, sweeps, counters, compare-profiles, trace-all). Nil
	// means the paper's five-setup presentation (cuda.PaperSetups), so
	// default output is byte-identical to the closed-enum harness.
	// Studies record the list they ran under; improvement statistics
	// normalize against the list's baseline setup (cuda.BaselineIndex).
	Setups []cuda.Setup

	// Parallelism is the worker count of the cell executor, and the
	// width at which one cell's iterations split into contiguous blocks
	// (see cellLoop). Zero or negative means GOMAXPROCS; 1 forces the
	// legacy serial path. Both levels draw from one worker-token pool,
	// so total concurrency never exceeds Parallelism, and output is
	// byte-identical at any width because every iteration keeps its own
	// seed and slot. The pool is sized on first use, so set it before
	// running studies.
	Parallelism int
	// Cache enables the cross-figure cell cache: identical
	// (workload, setup, size, iterations, seed, config) cells are
	// computed once and shared. Disable it to force every study to
	// re-simulate (benchmarks measuring harness cost do).
	Cache bool

	// Store, when non-nil, is the persistent cell store layered under
	// the in-memory cell cache: an in-memory miss consults the store
	// before simulating, and every freshly simulated cell is written
	// back. Store lookups happen inside the singleflight slot, so
	// concurrent callers of one cell trigger at most one disk read (or
	// one simulate+write). Requires Cache.
	Store store.Store

	// TraceHook, when non-nil, is consulted once per simulated iteration
	// of every measurement cell; a non-nil return value is attached to
	// that iteration's cuda.Context before the workload runs. Because
	// each cell binds its own tracer, tracing composes with the parallel
	// executor. A non-nil hook bypasses the cell cache (a cached Result
	// carries no timeline), and attaching a tracer never changes
	// simulated timing, so traced breakdowns equal untraced ones. With
	// Parallelism > 1 the hook may be called from concurrent iteration
	// blocks, so it must be safe for concurrent use (the package's own
	// hooks are: they key on the iteration index).
	TraceHook func(workload string, setup cuda.Setup, size workloads.Size, iter int) *trace.Tracer

	exec  *executor
	cache *cellCache
	pool  *contextPool
}

// NewRunner returns a Runner with the paper's defaults: the default
// hardware profile (the paper's A100-40GB testbed), parallel execution
// across all cores and the cell cache enabled.
func NewRunner() *Runner {
	return NewRunnerFor(profile.Default())
}

// NewRunnerFor returns a Runner measuring on the given hardware
// profile. Results from different profiles never collide in the cell
// cache: every cache key carries the profile's fingerprint.
func NewRunnerFor(p profile.Profile) *Runner {
	return &Runner{
		Config:     p.Config,
		Iterations: DefaultIterations,
		BaseSeed:   1,
		Cache:      true,
		exec:       &executor{},
		cache:      newCellCache(),
		pool:       &contextPool{},
	}
}

// acquireCtx returns a simulation context initialized to (Config, setup,
// seed): a recycled one from the shared pool when available (reset, so
// its arenas are warm but its observable state matches a fresh context
// bit for bit), a new one otherwise. Pair with releaseCtx. A zero-value
// Runner has no pool and always builds fresh contexts.
func (r *Runner) acquireCtx(setup cuda.Setup, seed int64) *cuda.Context {
	if r.pool != nil {
		if ctx := r.pool.get(); ctx != nil {
			ctx.Reset(r.Config, setup, seed)
			return ctx
		}
	}
	return cuda.NewContext(r.Config, setup, seed)
}

// releaseCtx parks the context for reuse by a later cell.
func (r *Runner) releaseCtx(ctx *cuda.Context) {
	if r.pool != nil {
		r.pool.put(ctx)
	}
}

// setups returns the effective study setup list: Runner.Setups when
// set, the paper's five-setup presentation otherwise.
func (r *Runner) setups() []cuda.Setup {
	if len(r.Setups) > 0 {
		return r.Setups
	}
	return cuda.PaperSetups()
}

// iters returns the effective iteration count.
func (r *Runner) iters() int {
	if r.Iterations < 1 {
		return 1
	}
	return r.Iterations
}

// Result holds the repeated measurements of one (workload, setup, size)
// cell. Results returned by Runner methods may be shared with the cell
// cache and must be treated as read-only.
//
// Its JSON encoding is the cell the persistent store keeps. Setup and
// Size stay out of it: the store key names both, and the cache restores
// them from the key's own arguments, so a stored cell cannot contradict
// its address.
type Result struct {
	Workload string         `json:"workload"`
	Setup    cuda.Setup     `json:"-"`
	Size     workloads.Size `json:"-"`

	Breakdowns []cuda.Breakdown `json:"breakdowns"`
	// Counters is the hardware-counter snapshot of the cell's FINAL
	// iteration (index Iterations-1), not an aggregate across
	// iterations. Counter values are deterministic given that
	// iteration's seed — the paper likewise profiles counters in
	// dedicated runs — and the contract holds on every execution path:
	// the serial loop snapshots after its last iteration, and the
	// intra-cell fan-out (Parallelism > 1) assigns the snapshot
	// from whichever block owns the final iteration, so fan-out and
	// serial runs report identical counters (pinned by
	// TestFanoutCountersMatchSerial).
	Counters counters.Set `json:"counters"`
}

// Totals returns the per-iteration wall totals.
func (r Result) Totals() []float64 {
	out := make([]float64, len(r.Breakdowns))
	for i, b := range r.Breakdowns {
		out[i] = b.Total
	}
	return out
}

// MeanBreakdown averages the component breakdown across iterations.
func (r Result) MeanBreakdown() cuda.Breakdown {
	var m cuda.Breakdown
	n := float64(len(r.Breakdowns))
	if n == 0 {
		return m
	}
	for _, b := range r.Breakdowns {
		m.Alloc += b.Alloc
		m.Memcpy += b.Memcpy
		m.Kernel += b.Kernel
		m.Overhead += b.Overhead
		m.Total += b.Total
	}
	m.Alloc /= n
	m.Memcpy /= n
	m.Kernel /= n
	m.Overhead /= n
	m.Total /= n
	return m
}

// seedFor derives a deterministic seed per cell and iteration. Every
// stochastic draw of a cell must trace back to this seed (see the
// package comment): drawing from shared mutable state instead would
// couple cells and break both parallel determinism and the cell cache.
func (r *Runner) seedFor(name string, setup cuda.Setup, size workloads.Size, iter int) int64 {
	h := int64(1469598103934665603)
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	// Setups share the iteration's noise draw (same "machine state"), as
	// when the paper interleaves its per-setup runs.
	_ = setup
	return r.BaseSeed + h%100000 + int64(size)*1000003 + int64(iter)*7919
}

// Measure runs workload w under setup at size for the configured number
// of iterations, fanning iterations across the executor and memoizing
// the cell in the cross-figure cache.
func (r *Runner) Measure(w workloads.Workload, setup cuda.Setup, size workloads.Size) (Result, error) {
	return r.cached(w.Name(), setup, size, func() (Result, error) {
		return r.measureCell(w, setup, size)
	})
}

// cellLoop simulates the iterations of one cell — len(out) of them —
// and is the single implementation under measureCell and sweepCell.
// Iterations are split into up to parallelism() contiguous blocks; each
// block acquires its own pooled context, seeds it per iteration with
// seed(i) (a Reset run is pinned bit-identical to a fresh context, so
// block boundaries are invisible in the results), and writes each
// Breakdown into its index slot. Blocks fan out through the shared
// worker-token pool — the same budget the cell executor draws from —
// so a saturated pool degrades to running the blocks inline, and a cold
// single-cell request gets the executor's full width. The block owning
// the final iteration snapshots the context's counters into final (when
// non-nil), which keeps Result.Counters' final-iteration contract exact
// at any fan-out. The per-iteration body allocates nothing; hook (may
// be nil) is the TraceHook binding and must tolerate concurrent calls.
// The returned error is the lowest-indexed failing block's first error.
func (r *Runner) cellLoop(setup cuda.Setup, seed func(i int) int64, hook func(i int) *trace.Tracer,
	run func(ctx *cuda.Context, i int) error, out []cuda.Breakdown, final *counters.Set) error {
	iters := len(out)
	inst := &noInstruments
	if r.cache != nil {
		inst = &r.cache.inst
	}
	block := func(lo, hi int) error {
		ctx := r.acquireCtx(setup, seed(lo))
		defer r.releaseCtx(ctx)
		for i := lo; i < hi; i++ {
			if i > lo {
				ctx.Reset(r.Config, setup, seed(i))
			}
			if hook != nil {
				if tr := hook(i); tr != nil {
					ctx.SetTracer(tr)
				}
			}
			if inst.iterSeconds != nil {
				inst.itersInFlight.Add(1)
				start := time.Now()
				err := run(ctx, i)
				inst.iterSeconds.Observe(time.Since(start).Seconds())
				inst.itersInFlight.Add(-1)
				if err != nil {
					return err
				}
			} else if err := run(ctx, i); err != nil {
				return err
			}
			out[i] = ctx.Breakdown()
			if final != nil && i == iters-1 {
				*final = *ctx.Counters()
			}
		}
		return nil
	}
	k := r.parallelism()
	if k > iters {
		k = iters
	}
	if k <= 1 {
		return block(0, iters)
	}
	return r.forEach(k, func(b int) error {
		return block(b*iters/k, (b+1)*iters/k)
	})
}

// measureCell simulates every iteration of one cell, fanning contiguous
// iteration blocks across pooled contexts (cellLoop). Per-iteration
// seeds make every block's reset runs identical to fresh contexts, so
// the cell's Result is byte-identical at any fan-out width, and a
// warmed-up iteration allocates nothing.
func (r *Runner) measureCell(w workloads.Workload, setup cuda.Setup, size workloads.Size) (Result, error) {
	iters := r.iters()
	name := w.Name()
	res := Result{
		Workload:   name,
		Setup:      setup,
		Size:       size,
		Breakdowns: make([]cuda.Breakdown, iters),
	}
	var hook func(i int) *trace.Tracer
	if r.TraceHook != nil {
		hook = func(i int) *trace.Tracer { return r.TraceHook(name, setup, size, i) }
	}
	err := r.cellLoop(setup,
		func(i int) int64 { return r.seedFor(name, setup, size, i) },
		hook,
		func(ctx *cuda.Context, i int) error {
			if err := w.Run(ctx, size); err != nil {
				return fmt.Errorf("core: %s/%s/%s iteration %d: %w", name, setup, size, i, err)
			}
			return nil
		},
		res.Breakdowns, &res.Counters)
	if err != nil {
		return Result{Workload: name, Setup: setup, Size: size}, err
	}
	return res, nil
}
