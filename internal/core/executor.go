package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/store"
	"uvmasim/internal/workloads"
)

// This file implements the parallel experiment executor and the
// cross-figure cell cache.
//
// Parallelism model: every measurement cell — one (workload, setup,
// size, iteration) simulated run — is independent of every other cell.
// Seeds are derived per cell (see seedFor), workloads draw their input
// data from fixed-seed local generators, and each cuda.Context owns all
// of its mutable simulation state. The executor therefore fans cells out
// across a worker pool and writes each cell's result into a
// pre-allocated slot indexed by the cell's serial position, so every
// study assembles (and renders) its results in exactly the order the
// legacy serial loops produced. Rendered output is byte-identical at any
// Parallelism.
//
// Concurrency is bounded by a token pool shared across nested fan-outs:
// a fan-out worker holds one token for its lifetime, and inner fan-outs
// (a study fans out cells; each cell fans out iterations) spawn extra
// workers only while spare tokens exist, otherwise running inline on the
// calling goroutine. The caller always participates, so the scheme
// cannot deadlock and the total number of busy goroutines stays at
// Parallelism.

// executor is the shared worker-token pool of one Runner (and of every
// Runner copy derived from it).
type executor struct {
	once   sync.Once
	tokens chan struct{}
}

// acquire takes a worker token if one is free. The pool is sized to
// par-1 tokens on first use (the calling goroutine is the par-th
// worker); later Parallelism changes on the same Runner do not resize
// it.
func (e *executor) acquire(par int) bool {
	e.once.Do(func() {
		n := par - 1
		if n < 0 {
			n = 0
		}
		e.tokens = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			e.tokens <- struct{}{}
		}
	})
	select {
	case <-e.tokens:
		return true
	default:
		return false
	}
}

func (e *executor) release() { e.tokens <- struct{}{} }

// contextPool recycles warmed-up cuda.Contexts across measurement cells.
// It is shared (by pointer) between a Runner and its copies, like the
// executor and the cell cache, so every study on the same Runner family
// draws from one set of contexts. Contexts are handed out exclusively
// (a cell resets and uses one context for all its iterations) and parked
// LIFO, which keeps the hottest arenas in use.
type contextPool struct {
	mu   sync.Mutex
	free []*cuda.Context
}

// get pops a parked context, or returns nil when the pool is empty.
func (p *contextPool) get() *cuda.Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return nil
}

// put parks a context for reuse.
func (p *contextPool) put(c *cuda.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, c)
}

// parallelism resolves the effective worker count: Parallelism if set,
// otherwise GOMAXPROCS.
func (r *Runner) parallelism() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1), fanning the calls across the worker pool.
// Each fn(i) must write its result only to slot i of a caller-owned
// destination, which keeps the merge deterministic regardless of
// completion order. The returned error is the lowest-index failure,
// matching what the serial loop would have reported.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	return r.forEachOrdered(n, nil, fn)
}

// forEachOrdered is forEach with an explicit dispatch order: workers
// claim items as order[0], order[1], ..., while every result still
// lands in its own index slot, so a cost-descending order (see
// lptOrder) shortens the makespan without touching the deterministic
// serial-order merge or the lowest-index error semantics. A nil order
// means identity. The inline fast path deliberately ignores the order:
// with a single worker the makespan equals the total either way, and
// index order preserves the legacy first-error behavior and the
// alloc-free guarantee.
//
// The fan-out machinery (error slice, atomic cursor, goroutines) is paid
// only after at least one spare worker token is actually acquired: with
// an effective parallelism of 1, on a zero-value Runner, or in a nested
// fan-out whose pool is already saturated, the loop runs inline on the
// calling goroutine and allocates nothing.
func (r *Runner) forEachOrdered(n int, order []int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	par := r.parallelism()
	if par > n {
		par = n
	}
	if par <= 1 || r.exec == nil || !r.exec.acquire(r.parallelism()) {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// One token is held: the fan-out has at least one helper worker.
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	work := func() {
		for {
			j := int(next.Add(1))
			if j >= n {
				return
			}
			i := j
			if order != nil {
				i = order[j]
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	spawn := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.exec.release()
			work()
		}()
	}
	spawn()
	for w := 2; w < par && r.exec.acquire(r.parallelism()); w++ {
		spawn()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellEntry is a singleflight slot: the first goroutine to claim the key
// computes, every later one (even concurrent ones) waits and shares the
// stored result.
type cellEntry struct {
	once sync.Once
	res  Result
	err  error
}

// cellCache memoizes measurement cells across studies and figures. It is
// shared (by pointer) between a Runner and its copies, so e.g. the
// single-iteration runner CounterComparison derives still populates the
// same cache.
type cellCache struct {
	mu     sync.Mutex
	m      map[store.Key]*cellEntry
	hits   atomic.Uint64
	misses atomic.Uint64
	// Store-tier traffic: of the in-memory misses, how many were served
	// from the persistent store vs actually simulated. Kept here (not on
	// the Runner) because Runners are value-copied by derived studies and
	// the whole family shares one cache.
	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
	// inst holds the optional metric hooks attached by
	// Runner.InstrumentMetrics. The zero value disables them; see
	// metrics.go.
	inst cellInstruments
	// fps memoizes profile.Fingerprint per config value (under mu): the
	// digest JSON-encodes and hashes the whole SystemConfig, and every
	// cell lookup needs it.
	fps map[cuda.SystemConfig]string
}

func newCellCache() *cellCache {
	return &cellCache{m: make(map[store.Key]*cellEntry), fps: make(map[cuda.SystemConfig]string)}
}

// fingerprint returns profile.Fingerprint(cfg), digesting each config
// value once. Fingerprint digests configs equally exactly when they
// compare equal, so the memo's keys are the digest's own classes.
func (c *cellCache) fingerprint(cfg cuda.SystemConfig) string {
	c.mu.Lock()
	fp, ok := c.fps[cfg]
	c.mu.Unlock()
	if !ok {
		fp = profile.Fingerprint(cfg)
		c.mu.Lock()
		c.fps[cfg] = fp
		c.mu.Unlock()
	}
	return fp
}

// do returns the cached result for key, computing it at most once.
func (c *cellCache) do(key store.Key, compute func() (Result, error)) (Result, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &cellEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		c.inst.memHits.Inc()
	} else {
		c.misses.Add(1)
		c.inst.memMisses.Inc()
	}
	e.once.Do(func() { e.res, e.err = compute() })
	return e.res, e.err
}

// cellKey is the key of one cell on this Runner, its address in the
// cell cache and in the persistent store alike. Two cells with equal
// keys produce bit-identical Results (the simulation is a pure function
// of the key), which is what makes caching safe for byte-identical
// rendering. The system model enters the key as its profile
// fingerprint — a digest of every SystemConfig field — so cells
// measured under different hardware profiles never collide, even when
// one Runner (or the cross-profile study) runs several machines against
// the same shared cache.
func (r *Runner) cellKey(kind string, setup cuda.Setup, size workloads.Size) store.Key {
	return store.Key{
		Kind:      kind,
		Setup:     setup.String(),
		Size:      size.String(),
		Iters:     r.iters(),
		Seed:      r.BaseSeed,
		ProfileFP: r.cache.fingerprint(r.Config),
	}
}

// cached routes a cell computation through the cell cache (when enabled).
// Cached Results are shared between callers and must be treated as
// read-only, which every consumer in this package does.
func (r *Runner) cached(kind string, setup cuda.Setup, size workloads.Size, compute func() (Result, error)) (Result, error) {
	// A traced run must actually simulate: a cache hit would return a
	// Result computed without the hook's tracer attached (and a traced
	// miss would poison the cache for untraced callers with an entry
	// whose timeline side effects already fired).
	if !r.Cache || r.cache == nil || r.TraceHook != nil {
		return compute()
	}
	key := r.cellKey(kind, setup, size)
	if r.Store == nil {
		return r.cache.do(key, func() (Result, error) {
			return r.timedCompute(compute)
		})
	}
	return r.cache.do(key, func() (Result, error) {
		// The stored cell omits Setup and Size, which the key that Get
		// checked already names. Every measured cell has at least one
		// iteration, so a cell without breakdowns is a damaged entry.
		var res Result
		if r.Store.Get(key, &res) && len(res.Breakdowns) > 0 {
			res.Setup, res.Size = setup, size
			r.cache.storeHits.Add(1)
			r.cache.inst.storeHits.Inc()
			return res, nil
		}
		r.cache.storeMisses.Add(1)
		r.cache.inst.storeMisses.Inc()
		res, err := r.timedCompute(compute)
		if err == nil {
			// Best-effort write-back: a failed Put costs a future
			// recompute, never a wrong result.
			_ = r.Store.Put(key, &res)
		}
		return res, err
	})
}

// CacheHits reports how many cell computations were satisfied from the
// cell cache (e.g. the shared fig9/fig10 counter study, or the repeated
// micro suite of fig7 at Super and the §4.1.1 summary).
func (r *Runner) CacheHits() uint64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.hits.Load()
}

// CacheMisses reports how many cell computations missed the in-memory
// cache (and so consulted the persistent store, when one is attached,
// before simulating).
func (r *Runner) CacheMisses() uint64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.misses.Load()
}

// StoreHits reports how many in-memory misses were served from the
// persistent cell store instead of the simulator.
func (r *Runner) StoreHits() uint64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.storeHits.Load()
}

// StoreMisses reports how many in-memory misses also missed the
// persistent store and actually ran the simulator. With no store
// attached this stays 0 (every memory miss simulates directly).
func (r *Runner) StoreMisses() uint64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.storeMisses.Load()
}
