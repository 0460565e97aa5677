package gpu

import (
	"fmt"
	"strings"
)

// Access classifies a kernel's dominant global-memory access pattern.
// It drives DRAM efficiency, L1 behaviour, UVM prefetcher accuracy and
// page-walk costs — the axis separating 2DCONV-like workloads (regular,
// prefetch-friendly) from lud-like workloads (irregular, async-friendly)
// in Takeaway 2.
type Access int

const (
	// Sequential: fully coalesced streaming (vector_seq, saxpy, conv).
	Sequential Access = iota
	// Strided: regular but with stride >1 or tiled reuse (gemv, gemm).
	Strided
	// Irregular: data-dependent but with some locality (kmeans, lud, nw).
	Irregular
	// Random: uniformly scattered accesses (vector_rand, knn distance
	// gathers, bayesian structure sampling).
	Random
)

// String implements fmt.Stringer.
func (a Access) String() string {
	switch a {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Irregular:
		return "irregular"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Access(%d)", int(a))
}

// dramEfficiency is the fraction of peak DRAM bandwidth the pattern
// achieves (coalescing + row-buffer locality).
func (a Access) dramEfficiency() float64 {
	switch a {
	case Sequential:
		return 1.0
	case Strided:
		return 0.80
	case Irregular:
		return 0.55
	default: // Random
		return 0.30
	}
}

// baseMissRate is the compulsory L1 load miss floor of the pattern for a
// generously sized cache: streaming data misses once per line, irregular
// patterns miss more often.
func (a Access) baseMissRate() float64 {
	switch a {
	case Sequential:
		return 0.125 // one miss per 32 B line of 4 B elements
	case Strided:
		return 0.25
	case Irregular:
		return 0.45
	default: // Random
		return 0.80
	}
}

// walkOverhead is the fractional address-translation cost UVM adds to the
// global fetch path (GPU page walks against the replicated CPU page
// table, §2.1). Irregular patterns walk more distinct pages per byte.
func (a Access) walkOverhead() float64 {
	switch a {
	case Sequential:
		return 0.10
	case Strided:
		return 0.16
	case Irregular:
		return 0.30
	default: // Random
		return 0.48
	}
}

// asyncBypassLoadBenefit is the relative L1 load miss-rate reduction when
// staged traffic bypasses L1 via memcpy_async, leaving the cache to the
// kernel's residual (pointer/index/reused) accesses. Irregular kernels
// benefit most (Figure 10: lud -35.96% load miss rate).
func (a Access) asyncBypassLoadBenefit() float64 {
	switch a {
	case Sequential:
		return 0.06
	case Strided:
		return 0.15
	case Irregular:
		return 0.38
	default: // Random
		return 0.30
	}
}

// asyncBypassStoreBenefit mirrors asyncBypassLoadBenefit for stores
// (Figure 10: lud -69.99% store miss rate): output staging through
// shared memory coalesces writes that would otherwise thrash L1.
func (a Access) asyncBypassStoreBenefit() float64 {
	switch a {
	case Sequential:
		return 0.10
	case Strided:
		return 0.25
	case Irregular:
		return 0.70
	default: // Random
		return 0.55
	}
}

// KernelSpec describes one kernel launch's work analytically. Workloads
// construct specs from their real algorithm structure (loop bounds, tile
// shapes), so the spec is derived, not assumed.
type KernelSpec struct {
	Name string

	// Launch geometry.
	Blocks          int
	ThreadsPerBlock int

	// Total kernel work across all blocks.
	LoadBytes int64 // unique global-memory bytes read (compulsory volume)
	// LoadAccessBytes is the algorithmic global-load volume (bytes issued
	// by load/cp.async instructions, counting re-reads across tiles).
	// Zero defaults to LoadBytes; tiled kernels like gemm set it to the
	// per-tile re-read volume.
	LoadAccessBytes int64
	StoreBytes      int64   // global-memory bytes written (unique)
	Flops           float64 // floating-point operations
	IntOps          float64 // integer/address operations
	CtrlOps         float64 // control operations at the preferred tile size

	// TileBytes is the preferred per-block shared-memory staging tile.
	// The effective tile shrinks when the shared partition cannot hold
	// it (twice over for async double buffering), growing CtrlOps
	// proportionally.
	TileBytes int64

	// Behavioural characteristics.
	Access         Access
	WorkingSetKB   float64 // per-SM reused working set (L1 pressure)
	StagedFraction float64 // fraction of LoadBytes that flows via shared staging

	// Async-path coefficients (1.0 = neutral). These come from tile
	// geometry: halo re-reads for stencils, lost register blocking for
	// dense kernels with halved tiles.
	AsyncLoadInflation  float64
	AsyncComputePenalty float64
	AsyncCtrlFactor     float64 // multiplier on Int+Ctrl ops (Figure 9)

	// SyncStageOverhead is the extra fraction of fetch time the
	// synchronous path spends shuffling data through the register file
	// into shared memory with barrier waits (the cost async staging
	// eliminates).
	SyncStageOverhead float64
}

// withDefaults fills zero-valued tuning fields with neutral defaults.
func (s KernelSpec) withDefaults() KernelSpec {
	if s.StagedFraction == 0 {
		s.StagedFraction = 1.0
	}
	if s.AsyncLoadInflation == 0 {
		s.AsyncLoadInflation = 1.0
	}
	if s.AsyncComputePenalty == 0 {
		s.AsyncComputePenalty = 1.0
	}
	if s.AsyncCtrlFactor == 0 {
		s.AsyncCtrlFactor = 1.40
	}
	if s.SyncStageOverhead == 0 {
		s.SyncStageOverhead = 0.35
	}
	if s.TileBytes == 0 {
		s.TileBytes = 32 << 10
	}
	if s.LoadAccessBytes == 0 {
		s.LoadAccessBytes = s.LoadBytes
	}
	return s
}

// Validate reports structural problems in the spec.
//
// The error paths clone s.Name before boxing it: interface-converting
// the field directly would make the whole receiver leak, forcing every
// caller's enclosing struct (e.g. cuda.Launch and its buffer slices) to
// heap-allocate on the alloc-free launch path.
func (s KernelSpec) Validate() error {
	switch {
	case s.Blocks <= 0:
		return fmt.Errorf("gpu: kernel %q: Blocks must be positive, got %d", strings.Clone(s.Name), s.Blocks)
	case s.ThreadsPerBlock <= 0:
		return fmt.Errorf("gpu: kernel %q: ThreadsPerBlock must be positive, got %d", strings.Clone(s.Name), s.ThreadsPerBlock)
	case s.ThreadsPerBlock > 1024:
		return fmt.Errorf("gpu: kernel %q: ThreadsPerBlock %d exceeds CUDA limit 1024", strings.Clone(s.Name), s.ThreadsPerBlock)
	case s.LoadBytes < 0 || s.StoreBytes < 0:
		return fmt.Errorf("gpu: kernel %q: negative byte counts", strings.Clone(s.Name))
	case s.LoadAccessBytes != 0 && s.LoadAccessBytes < s.LoadBytes:
		return fmt.Errorf("gpu: kernel %q: LoadAccessBytes %d below unique LoadBytes %d",
			strings.Clone(s.Name), s.LoadAccessBytes, s.LoadBytes)
	case s.Flops < 0 || s.IntOps < 0 || s.CtrlOps < 0:
		return fmt.Errorf("gpu: kernel %q: negative op counts", strings.Clone(s.Name))
	case s.TileBytes < 0:
		return fmt.Errorf("gpu: kernel %q: negative TileBytes", strings.Clone(s.Name))
	case s.StagedFraction < 0 || s.StagedFraction > 1:
		return fmt.Errorf("gpu: kernel %q: StagedFraction %v outside [0,1]", strings.Clone(s.Name), s.StagedFraction)
	}
	return nil
}
