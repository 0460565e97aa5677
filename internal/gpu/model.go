package gpu

import (
	"fmt"
	"math"

	"uvmasim/internal/counters"
)

// ExecConfig describes the environment of one kernel launch: which of the
// paper's data-transfer features are active and how the unified cache is
// partitioned.
type ExecConfig struct {
	// Async enables memcpy_async staging (global->shared bypassing the
	// register file and L1) with double buffering.
	Async bool
	// Managed marks the kernel's buffers as UVM-managed, adding GPU page
	// walk overhead to the global fetch path.
	Managed bool
	// DriverPrefetch marks that the UVM driver prefetcher is streaming
	// pages during the kernel (uvm_prefetch* setups), polluting L1.
	DriverPrefetch bool
	// PageSequential marks kernels whose page-level access order is a
	// linear sweep even if element-level access is irregular; their GPU
	// TLB walks stay cheap (kmeans scans points linearly while gathering
	// centroids randomly).
	PageSequential bool
	// SharedPerBlockKB is the shared-memory allocation per block in KB.
	// Zero selects the paper's default static allocation of 32 KB.
	SharedPerBlockKB float64
	// ZeroCopy marks the kernel's buffers as host-resident, accessed in
	// place over the host link (the uvm_zerocopy setup): the global
	// fetch and store paths pay the link's bandwidth and latency instead
	// of HBM's, and no page ever migrates.
	ZeroCopy bool
	// LinkBytesPerNs is the effective per-direction host-link bandwidth
	// available to SM-issued remote accesses, already derated for
	// fine-grained access. Used only when ZeroCopy is set.
	LinkBytesPerNs float64
	// LinkLatencyNs is the round-trip latency of one remote access over
	// the host link. Used only when ZeroCopy is set.
	LinkLatencyNs float64
}

// normalizedShared returns the per-block shared allocation in bytes.
func (e ExecConfig) normalizedShared() float64 {
	kb := e.SharedPerBlockKB
	if kb <= 0 {
		kb = 32
	}
	return kb * 1024
}

// Occupancy describes how a launch maps onto the SM array.
type Occupancy struct {
	BlocksPerSM   int
	WarpsPerSM    int
	ActiveThreads int     // simultaneously resident threads, whole GPU
	SMUtilization float64 // fraction of SMs owning at least one block
	Fraction      float64 // resident warps / max warps (CUPTI "occupancy")
	SharedCarveKB float64 // per-SM shared carveout implied by the launch
	L1KB          float64 // remaining L1/texture capacity
	EffTileBytes  float64 // per-block staging tile after shared clamping
	Buffers       int     // staging buffers (2 when double buffered)
}

// LaunchResult is the analytic outcome of one kernel launch with all data
// resident in device memory.
type LaunchResult struct {
	Spec KernelSpec
	Exec ExecConfig
	Occ  Occupancy

	// ExecTime is the in-SM wall time in ns.
	ExecTime float64
	// Component views (memory and compute overlap partially — fully
	// under Async — so components exceed ExecTime by the overlap).
	FetchTime   float64
	StageTime   float64 // sync-path register-file staging overhead
	ComputeTime float64
	StoreTime   float64
	// HideFactor is the achieved fraction of peak memory-level
	// parallelism (1 = latency fully hidden).
	HideFactor float64
	// TrafficBytes is the memory traffic the kernel generates: HBM
	// traffic for device-resident launches, host-link traffic for
	// zero-copy launches.
	TrafficBytes float64

	Inst counters.InstMix
	L1   counters.L1Stats
}

// Model evaluates kernel launches against a GPU configuration.
type Model struct {
	cfg Config
}

// NewModel returns a Model for the given GPU.
func NewModel(cfg Config) *Model { return &Model{cfg: cfg} }

// Config returns the GPU configuration.
func (m *Model) Config() Config { return m.cfg }

// occupancy resolves the launch geometry against SM resource limits.
func (m *Model) occupancy(s KernelSpec, e ExecConfig) Occupancy {
	c := m.cfg
	buffers := 1
	if e.Async {
		buffers = 2
	}
	perBlockShared := e.normalizedShared()
	maxShared := float64(c.MaxSharedKB) * 1024
	if perBlockShared > maxShared {
		perBlockShared = maxShared
	}

	blocks := c.MaxBlocksPerSM
	if byThreads := c.MaxThreadsPerSM / s.ThreadsPerBlock; byThreads < blocks {
		blocks = byThreads
	}
	if byShared := int(maxShared / perBlockShared); byShared < blocks {
		blocks = byShared
	}
	if blocks < 1 {
		blocks = 1
	}
	// No more blocks resident per SM than exist in the grid.
	if per := (s.Blocks + c.SMs - 1) / c.SMs; per < blocks {
		blocks = per
	}

	warps := blocks * s.ThreadsPerBlock / c.WarpSize
	if warps < 1 {
		warps = 1
	}
	if warps > c.MaxWarpsPerSM {
		warps = c.MaxWarpsPerSM
		blocks = warps * c.WarpSize / s.ThreadsPerBlock
		if blocks < 1 {
			blocks = 1
		}
	}

	busySMs := s.Blocks
	if busySMs > c.SMs {
		busySMs = c.SMs
	}
	active := blocks * s.ThreadsPerBlock * busySMs
	if total := s.Blocks * s.ThreadsPerBlock; active > total {
		active = total
	}

	carve := perBlockShared * float64(blocks)
	if carve > maxShared {
		carve = maxShared
	}
	effTile := math.Min(float64(s.TileBytes), perBlockShared/float64(buffers))
	if effTile < 128 {
		effTile = 128 // smallest meaningful staging granule
	}

	return Occupancy{
		BlocksPerSM:   blocks,
		WarpsPerSM:    warps,
		ActiveThreads: active,
		SMUtilization: float64(busySMs) / float64(c.SMs),
		Fraction:      float64(warps) / float64(c.MaxWarpsPerSM),
		SharedCarveKB: carve / 1024,
		L1KB:          c.L1KB(carve / 1024),
		EffTileBytes:  effTile,
		Buffers:       buffers,
	}
}

// hideFactor estimates the achieved fraction of peak memory bandwidth
// from memory-level parallelism: enough in-flight bytes must cover the
// bandwidth-latency product (Little's law). Async staging deepens the
// per-thread in-flight window to the shared-memory buffer (Takeaway 4:
// async wins grow as threads per block shrink).
func (m *Model) hideFactor(s KernelSpec, e ExecConfig, occ Occupancy) float64 {
	c := m.cfg
	inflight := c.SyncInflightBytes
	if e.Async {
		perThreadBuf := occ.EffTileBytes / float64(s.ThreadsPerBlock)
		if perThreadBuf > inflight {
			inflight = perThreadBuf
		}
	}
	latency, bw := c.HBMLatencyNs, c.HBMBytesPerNs()
	if e.ZeroCopy && e.LinkBytesPerNs > 0 {
		// Remote accesses must cover the link's bandwidth-latency
		// product; the link's low bandwidth makes that product small, so
		// modest thread counts hide the (much longer) remote latency.
		latency, bw = e.LinkLatencyNs, e.LinkBytesPerNs
	}
	demand := latency * bw
	h := float64(occ.ActiveThreads) * inflight / demand
	if h > 1 {
		h = 1
	}
	if h < 0.02 {
		h = 0.02
	}
	return h
}

// cache evaluates the unified-L1 model: miss rates for loads and stores
// under the launch's partition, pattern, working set, async bypass and
// UVM prefetcher pollution. These counters feed Figure 10; the timing
// impact of access behaviour flows through trafficFactor and
// dramEfficiency instead, so the two views stay independently auditable.
func (m *Model) cache(s KernelSpec, e ExecConfig, occ Occupancy) (counters.L1Stats, float64) {
	if s.LoadAccessBytes == 0 && s.StoreBytes == 0 {
		return counters.L1Stats{}, 0
	}
	const elem = 4 // float32 accounting granule

	pressure := 0.0
	if s.WorkingSetKB > 0 {
		pressure = 0.40 * (1 - math.Min(1, occ.L1KB/s.WorkingSetKB))
	}
	pollution := 0.0
	if e.Managed {
		p0 := 0.10
		if e.DriverPrefetch {
			p0 = 0.14
		}
		// The prefetcher streams ~48 KB of lines through the cache; the
		// smaller the L1 partition, the larger the fraction of resident
		// lines it evicts (Takeaway 5).
		pollution = p0 * math.Min(1, 48/occ.L1KB)
	}

	loadMiss := clamp01(s.Access.baseMissRate() + pressure + pollution)
	storeMiss := clamp01(s.Access.baseMissRate()*1.25 + pressure + pollution*0.5)

	loadAcc := float64(s.LoadAccessBytes) / elem
	storeAcc := float64(s.StoreBytes) / elem

	if e.Async {
		// Staged loads bypass L1 entirely; the residual accesses see a
		// cleaner cache (Figure 10).
		staged := s.StagedFraction
		loadAcc *= (1 - staged) + staged*0.1 // bookkeeping accesses remain
		loadMiss = clamp01(loadMiss * (1 - s.Access.asyncBypassLoadBenefit()))
		storeMiss = clamp01(storeMiss * (1 - s.Access.asyncBypassStoreBenefit()))
	}

	return counters.L1Stats{
		LoadAccesses:  loadAcc,
		LoadMisses:    loadAcc * loadMiss,
		StoreAccesses: storeAcc,
		StoreMisses:   storeAcc * storeMiss,
	}, pollution
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// trafficFactor is the HBM bytes moved per algorithmic load byte. The
// synchronous path overfetches badly for scattered accesses (a 32 B line
// per 4 B element in the worst case); asynchronous tile staging converts
// scattered element access into streamed line-sized copies, which is the
// timing side of lud's Figure 10 improvement.
func trafficFactor(a Access, async bool) float64 {
	if async {
		switch a {
		case Sequential:
			return 1.0
		case Strided:
			return 1.05
		case Irregular:
			return 1.3
		default: // Random
			return 2.0
		}
	}
	switch a {
	case Sequential:
		return 1.0
	case Strided:
		return 1.15
	case Irregular:
		return 2.0
	default: // Random
		return 6.0
	}
}

// Launch evaluates the kernel analytically and returns timing plus
// counter deltas. It is a pure function of the spec, the exec config and
// the GPU configuration: it records nothing, and cuda.Context.Launch
// counts the launch in the run's trace. It panics on invalid specs
// (programming error in a workload definition), mirroring a CUDA launch
// failure.
func (m *Model) Launch(spec KernelSpec, e ExecConfig) LaunchResult {
	s := spec.withDefaults()
	if err := s.Validate(); err != nil {
		panic(err)
	}
	c := m.cfg
	occ := m.occupancy(s, e)
	hide := m.hideFactor(s, e, occ)
	l1, pollution := m.cache(s, e, occ)

	// Control work scales with the number of staging iterations: a
	// smaller effective tile means more loop trips.
	tileScale := 1.0
	if s.TileBytes > 0 && occ.EffTileBytes < float64(s.TileBytes) {
		tileScale = float64(s.TileBytes) / occ.EffTileBytes
	}
	intOps := s.IntOps
	ctrlOps := s.CtrlOps * tileScale
	if e.Async {
		intOps *= s.AsyncCtrlFactor
		ctrlOps *= s.AsyncCtrlFactor
	}

	// HBM load traffic from the algorithmic load volume.
	algLoads := float64(s.LoadAccessBytes)
	staged := algLoads * s.StagedFraction
	residual := algLoads - staged
	var loadTraffic float64
	if e.Async {
		loadTraffic = staged*trafficFactor(s.Access, true)*s.AsyncLoadInflation*math.Sqrt(tileScale) +
			residual*trafficFactor(s.Access, false)
	} else {
		loadTraffic = algLoads * trafficFactor(s.Access, false)
	}
	if e.ZeroCopy {
		// In-place remote access gathers at line granularity with warp
		// coalescing — the coalesced overfetch column, like async
		// staging granules — and every algorithmic byte crosses the
		// link. Reuse is never amortized by residency, which is why
		// zero-copy loses to migration on dense-reuse kernels and wins
		// on sparse single-pass ones.
		loadTraffic = algLoads * trafficFactor(s.Access, true)
	}
	storeTraffic := float64(s.StoreBytes)
	traffic := loadTraffic + storeTraffic

	// Memory path times.
	dramEff := s.Access.dramEfficiency()
	if e.Async || e.ZeroCopy {
		// Hardware-coalesced bulk copies are less pattern-sensitive, and
		// so is host DRAM behind a transaction-based link: the pattern
		// cost of remote access is already charged as line-granularity
		// overfetch in trafficFactor, so only residual row-buffer
		// sensitivity derates the link.
		dramEff = math.Sqrt(dramEff)
	}
	memBW := c.HBMBytesPerNs()
	if e.ZeroCopy && e.LinkBytesPerNs > 0 {
		// Loads and stores travel the host link instead of HBM; host
		// DRAM scatter sensitivity still applies through dramEff.
		memBW = e.LinkBytesPerNs
	}
	fetch := loadTraffic / (memBW * dramEff * hide)
	store := storeTraffic / (memBW * math.Sqrt(s.Access.dramEfficiency()) * hide)
	if e.Managed {
		// Page-walk overhead plus the extra evictions the UVM
		// prefetcher's streamed lines cause in a shrunken L1 (the
		// timing face of Takeaway 5's partition sensitivity).
		walk := s.Access.walkOverhead()
		if e.PageSequential {
			walk = Sequential.walkOverhead()
		}
		fetch *= (1 + walk) * (1 + pollution)
	}

	// Compute path time. A handful of warps saturates the issue ports
	// thanks to instruction-level parallelism (~3 independent ops in
	// flight per warp), so ALU throughput degrades much more gently with
	// occupancy than memory latency hiding does.
	util := math.Min(1, float64(occ.WarpsPerSM)*3/8) * occ.SMUtilization
	if util <= 0 {
		util = 0.01
	}
	compute := s.Flops/(c.FlopsPerNs()*util) + (intOps+ctrlOps)/(c.IntOpsPerNs()*util)

	var exec, stage float64
	if e.Async {
		compute *= s.AsyncComputePenalty
		// Double-buffered pipeline: transfer and compute fully overlap;
		// the first tile fill is exposed.
		nTiles := math.Max(1, staged/math.Max(occ.EffTileBytes, 1))
		fill := fetch / nTiles
		exec = math.Max(fetch+store, compute) + fill
	} else {
		// The synchronous staging loop overlaps memory and compute only
		// through warp interleaving; block-wide barriers around the
		// register-file round trip expose the shorter phase. Overlap
		// ability grows with the compute/memory ratio: long compute
		// phases give the scheduler room to issue the next tile's loads.
		stage = s.SyncStageOverhead * (staged / math.Max(algLoads, 1)) * fetch
		memTime := fetch + stage + store
		ratio := compute / math.Max(memTime, 1e-9)
		overlap := math.Min(0.95, math.Max(0.15, ratio))
		if compute > memTime {
			exec = compute + memTime*(1-overlap)
		} else {
			exec = memTime + compute*(1-overlap)
		}
	}

	inst := counters.InstMix{
		FP:   s.Flops / 2, // FMA retires two flops per instruction
		Int:  intOps,
		Ctrl: ctrlOps,
	}
	if e.Async {
		// cp.async moves 16 B per instruction; residual loads and all
		// stores issue per element.
		inst.Mem = staged/16 + residual/4 + float64(s.StoreBytes)/4
	} else {
		inst.Mem = algLoads/4 + float64(s.StoreBytes)/4
	}

	return LaunchResult{
		Spec:         s,
		Exec:         e,
		Occ:          occ,
		ExecTime:     exec,
		FetchTime:    fetch,
		StageTime:    stage,
		ComputeTime:  compute,
		StoreTime:    store,
		HideFactor:   hide,
		TrafficBytes: traffic,
		Inst:         inst,
		L1:           l1,
	}
}

// String summarizes a result for debugging output.
func (r LaunchResult) String() string {
	return fmt.Sprintf("%s: exec=%.0fns fetch=%.0f stage=%.0f compute=%.0f store=%.0f occ=%.2f hide=%.2f",
		r.Spec.Name, r.ExecTime, r.FetchTime, r.StageTime, r.ComputeTime, r.StoreTime,
		r.Occ.Fraction, r.HideFactor)
}
