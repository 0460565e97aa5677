package cuda

import (
	"fmt"
	"math/rand"

	"uvmasim/internal/counters"
	"uvmasim/internal/devmem"
	"uvmasim/internal/gpu"
	"uvmasim/internal/hostmem"
	"uvmasim/internal/pcie"
	"uvmasim/internal/seedrng"
	"uvmasim/internal/sim"
	"uvmasim/internal/trace"
	"uvmasim/internal/uvm"
)

// Context is one simulated process execution: a CUDA context on the
// modelled system, under one registered setup, with its own noise
// draw. The paper measures 30 such executions per configuration; the
// harness creates a fresh Context per iteration.
//
// A Context is single-threaded, like the benchmarks it models.
type Context struct {
	cfg   SystemConfig
	setup Setup

	bus   *pcie.Bus
	model *gpu.Model
	mgr   *uvm.Manager
	host  *hostmem.Memory
	dev   *devmem.Allocator
	ctrs  *counters.Set
	rng   *rand.Rand

	// SharedPerBlockKB overrides the per-block shared-memory allocation
	// for every launch (Figure 13 sweeps it). Zero keeps the 32 KB
	// default.
	SharedPerBlockKB float64

	now         float64
	allocBusy   float64
	overhead    float64
	kernelSpans []sim.Interval
	live        int
	tracer      *trace.Tracer

	// Buffer watermark pool: Alloc hands out bufs[bufNext] when one is
	// left from an earlier life of this context, growing the pool
	// otherwise. Buffers are recycled only by Reset — never by Free — so
	// double frees stay detectable for the whole run.
	bufs    []*Buffer
	bufNext int
	// demandSeq is the reusable shuffle scratch of the irregular demand
	// path in paceManaged (pointer-free, so refills are barrier-free).
	demandSeq []demandRef
}

// NewContext creates a fresh simulated process under the given setup.
// The seed determines every stochastic draw, so a (config, setup, seed)
// triple is fully reproducible.
func NewContext(cfg SystemConfig, setup Setup, seed int64) *Context {
	bus := pcie.New(cfg.PCIe)
	ctrs := &counters.Set{}
	ctx := &Context{
		cfg:   cfg,
		setup: setup,
		bus:   bus,
		model: gpu.NewModel(cfg.GPU),
		mgr:   uvm.NewManager(cfg.UVM, bus, cfg.ManagedCapacity(), &ctrs.UVM),
		host:  hostmem.New(cfg.Host),
		dev:   devmem.NewAllocator(cfg.GPU.HBMCapacity),
		ctrs:  ctrs,
		// seedrng reproduces rand.NewSource(seed)'s stream exactly while
		// computing each seeded state word directly, so the per-iteration
		// reseed in Reset stays cheap for seeds never seen before (see
		// internal/seedrng).
		rng: rand.New(seedrng.New(seed)),
	}
	ctx.host.Randomize(ctx.rng)
	ctx.overhead = cfg.SystemOverheadNs * ctx.jitter(cfg.OverheadJitterRel)
	return ctx
}

// Reset rewinds the context to the state NewContext(cfg, setup, seed)
// would produce, reusing every arena the previous runs warmed up: link
// interval sets, UVM region/node arenas, host and device allocator
// storage, and the Buffer pool. It detaches the tracer, as a fresh
// context has none. A reset context reproduces a fresh context's
// simulation bit for bit (the RNG is reseeded, so the draw stream is
// identical), which is what lets the harness hold one context per
// measurement cell instead of allocating thirty. When the system
// configuration differs from the context's current one, the arenas are
// rebuilt from scratch.
func (c *Context) Reset(cfg SystemConfig, setup Setup, seed int64) {
	if cfg != c.cfg {
		*c = *NewContext(cfg, setup, seed)
		return
	}
	c.setup = setup
	c.bus.Reset()
	c.bus.SetTracer(nil)
	*c.ctrs = counters.Set{}
	c.mgr.Reset()
	c.host.Reset()
	c.dev.Reset()
	c.rng.Seed(seed)
	c.SharedPerBlockKB = 0
	c.now = 0
	c.allocBusy = 0
	c.kernelSpans = c.kernelSpans[:0]
	c.live = 0
	c.tracer = nil
	c.bufNext = 0
	c.host.Randomize(c.rng)
	c.overhead = cfg.SystemOverheadNs * c.jitter(cfg.OverheadJitterRel)
}

// newBuffer takes the next Buffer from the pool, growing it when the
// high-water mark is reached.
func (c *Context) newBuffer() *Buffer {
	if c.bufNext < len(c.bufs) {
		b := c.bufs[c.bufNext]
		c.bufNext++
		*b = Buffer{}
		return b
	}
	b := &Buffer{}
	c.bufs = append(c.bufs, b)
	c.bufNext++
	return b
}

// jitter returns a multiplicative noise factor uniform in [1-rel, 1+rel].
func (c *Context) jitter(rel float64) float64 {
	if rel <= 0 {
		return 1
	}
	return 1 + rel*(2*c.rng.Float64()-1)
}

// SetTracer attaches an observability tracer to the context and, through
// the PCIe bus the UVM manager reads it from, to every transfer
// underneath it; it is the one place a run's tracer is attached. The
// context itself records the host API, kernel spans and the gpu.*
// launch counts. Attach it right after NewContext or Reset, before the
// workload runs; a nil tracer (the default) disables recording with no
// measurable cost. The tracer only observes — attaching one never
// changes simulated timing.
func (c *Context) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	c.bus.SetTracer(tr)
	tr.Instant(trace.Host, "process_start", c.now, trace.Args{Setup: c.setup.String()})
	tr.Count("process.overhead_ns", c.overhead)
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (c *Context) Tracer() *trace.Tracer { return c.tracer }

// Setup returns the context's data-transfer configuration.
func (c *Context) Setup() Setup { return c.setup }

// Config returns the system configuration.
func (c *Context) Config() SystemConfig { return c.cfg }

// Counters returns the context's hardware-counter set.
func (c *Context) Counters() *counters.Set { return c.ctrs }

// Now returns the context's CPU-side time cursor in ns.
func (c *Context) Now() float64 { return c.now }

// Buffer is a device allocation (cudaMalloc) or a managed allocation
// (cudaMallocManaged), plus the host-side staging area it copies from.
type Buffer struct {
	Name string
	Size int64

	managed   bool
	addr      devmem.Addr
	region    *uvm.Region
	hostID    int64
	hostPlace hostmem.Placement
	freed     bool
}

// Managed reports whether the buffer lives in unified memory.
func (b *Buffer) Managed() bool { return b.managed }

// Alloc allocates a buffer the way the context's setup dictates:
// cudaMallocManaged under the managed setups, cudaMalloc otherwise.
// This is the call workloads use so one implementation serves every
// registered variant.
func (c *Context) Alloc(name string, size int64) (*Buffer, error) {
	if c.setup.Managed() {
		return c.MallocManaged(name, size)
	}
	return c.Malloc(name, size)
}

// Malloc models cudaMalloc: device memory is reserved and the call's
// driver time advances the allocation clock.
func (c *Context) Malloc(name string, size int64) (*Buffer, error) {
	addr, err := c.dev.Alloc(size)
	if err != nil {
		return nil, err
	}
	b := c.newBuffer()
	b.Name, b.Size, b.addr = name, size, addr
	if err := c.placeHost(b); err != nil {
		c.dev.Free(addr)
		c.bufNext-- // b was the last buffer handed out
		return nil, err
	}
	c.chargeAlloc(c.cfg.Alloc.MallocTime(size), "cudaMalloc", size)
	c.live++
	return b, nil
}

// MallocManaged models cudaMallocManaged: a unified region whose pages
// migrate on demand.
func (c *Context) MallocManaged(name string, size int64) (*Buffer, error) {
	region, err := c.mgr.Register(size)
	if err != nil {
		return nil, err
	}
	b := c.newBuffer()
	b.Name, b.Size, b.managed, b.region = name, size, true, region
	if err := c.placeHost(b); err != nil {
		c.mgr.Unregister(region)
		c.bufNext-- // b was the last buffer handed out
		return nil, err
	}
	c.chargeAlloc(c.cfg.Alloc.ManagedTime(size), "cudaMallocManaged", size)
	c.live++
	return b, nil
}

// placeHost reserves the buffer's host staging pages, recording the chip
// placement that determines bulk-copy efficiency.
func (c *Context) placeHost(b *Buffer) error {
	id, place, err := c.host.Alloc(b.Size)
	if err != nil {
		return err
	}
	b.hostID = id
	b.hostPlace = place
	return nil
}

// chargeAlloc advances the CPU cursor by a jittered allocation cost,
// attributes it to the allocation component and records the API call on
// the host track.
func (c *Context) chargeAlloc(base float64, op string, size int64) {
	cost := base * c.jitter(c.cfg.OverheadJitterRel)
	c.tracer.Span(trace.Host, op, c.now, c.now+cost, trace.Args{Bytes: size})
	c.now += cost
	c.allocBusy += cost
}

// Free models cudaFree. Freeing twice is an error, as in CUDA.
func (c *Context) Free(b *Buffer) error {
	if b.freed {
		return fmt.Errorf("cuda: double free of buffer %q", b.Name)
	}
	b.freed = true
	c.live--
	if b.managed {
		if err := c.mgr.Unregister(b.region); err != nil {
			return err
		}
	} else {
		if err := c.dev.Free(b.addr); err != nil {
			return err
		}
	}
	if err := c.host.Free(b.hostID); err != nil {
		return err
	}
	c.chargeAlloc(c.cfg.Alloc.FreeTime(b.Size, b.managed), "cudaFree", b.Size)
	return nil
}

// Live reports the number of outstanding buffers.
func (c *Context) Live() int { return c.live }

// hostEff derates a bulk copy for this buffer's host placement plus a
// small per-copy link jitter.
func (c *Context) hostEff(b *Buffer) float64 {
	eff := c.host.CopyEfficiency(b.hostPlace, c.rng) * c.jitter(0.01)
	if eff > 1 {
		eff = 1
	}
	return eff
}

// MemcpyH2D models a synchronous cudaMemcpy(..., HostToDevice) of the
// whole buffer. Calling it on a managed buffer is an error: the UVM
// variants of the paper's workloads never copy explicitly.
func (c *Context) MemcpyH2D(b *Buffer) error {
	if b.managed {
		return fmt.Errorf("cuda: explicit H2D memcpy on managed buffer %q", b.Name)
	}
	if b.freed {
		return fmt.Errorf("cuda: memcpy on freed buffer %q", b.Name)
	}
	end := c.bus.CopyH2DBulk(c.now, b.Size, c.hostEff(b))
	c.ctrs.H2DBytes += float64(b.Size)
	c.now = end
	return nil
}

// MemcpyD2H models a synchronous cudaMemcpy(..., DeviceToHost).
func (c *Context) MemcpyD2H(b *Buffer) error {
	if b.managed {
		return fmt.Errorf("cuda: explicit D2H memcpy on managed buffer %q", b.Name)
	}
	if b.freed {
		return fmt.Errorf("cuda: memcpy on freed buffer %q", b.Name)
	}
	end := c.bus.CopyD2HBulk(c.now, b.Size, c.hostEff(b))
	c.ctrs.D2HBytes += float64(b.Size)
	c.now = end
	return nil
}

// Upload stages an input buffer onto the device the way the setup does
// it: an explicit H2D copy for standard/async, nothing for UVM (pages
// migrate when the kernel touches them).
func (c *Context) Upload(b *Buffer) error {
	if b.managed {
		return nil
	}
	return c.MemcpyH2D(b)
}

// Download brings results back to the host: an explicit D2H copy for
// standard/async, a dirty-page writeback (the CPU touching managed
// results) for UVM.
func (c *Context) Download(b *Buffer) error {
	if !b.managed {
		return c.MemcpyD2H(b)
	}
	if b.freed {
		return fmt.Errorf("cuda: download of freed buffer %q", b.Name)
	}
	end := c.mgr.WritebackDirty(b.region, c.now)
	c.now = end
	return nil
}

// HostCompute advances the CPU cursor by d nanoseconds of host-side work
// (image decoding, centroid updates, result post-processing). It is not
// attributed to any breakdown component, mirroring how the paper's
// region-of-interest timers bracket only the CUDA API calls.
func (c *Context) HostCompute(d float64) {
	if d < 0 {
		panic("cuda: negative host compute time")
	}
	c.tracer.Span(trace.Host, "host_compute", c.now, c.now+d, trace.Args{})
	c.now += d
}

// Consume models the host consuming kernel results the way the paper's
// benchmarks do (checksums and sampled verification): the standard/async
// variants still copy the whole buffer back explicitly (their code calls
// cudaMemcpy on the full allocation), while the UVM variants fault back
// only the pages the CPU actually touches — a configured fraction of the
// buffer. This asymmetry is one of the measured UVM transfer savings of
// §4.1.
func (c *Context) Consume(b *Buffer) error {
	if !b.managed {
		return c.MemcpyD2H(b)
	}
	if b.freed {
		return fmt.Errorf("cuda: consume of freed buffer %q", b.Name)
	}
	sample := int64(float64(b.Size) * c.cfg.HostConsumeFraction)
	if sample < c.cfg.UVM.ChunkBytes {
		sample = c.cfg.UVM.ChunkBytes
	}
	c.now = c.mgr.WritebackPartial(b.region, c.now, sample)
	return nil
}

// Synchronize models cudaDeviceSynchronize: the CPU waits for all queued
// device work, including in-flight prefetch streams.
func (c *Context) Synchronize() {
	before := c.now
	if t := c.bus.H2D.BusyUntil(); t > c.now {
		c.now = t
	}
	if t := c.bus.D2H.BusyUntil(); t > c.now {
		c.now = t
	}
	c.tracer.Span(trace.Host, "cudaDeviceSynchronize", before, c.now, trace.Args{})
}

// execConfig resolves the gpu.ExecConfig for a launch under this setup.
// Zero-copy launches carry the link's effective bandwidth and latency
// down into the analytic model, derived from the PCIe configuration —
// the per-access remote cost lives in the gpu layer, the link
// parameters in pcie.
func (c *Context) execConfig(shared float64, pageSequential bool) gpu.ExecConfig {
	kb := shared
	if kb == 0 {
		kb = c.SharedPerBlockKB
	}
	e := gpu.ExecConfig{
		Async:            c.setup.AsyncCopy(),
		Managed:          c.setup.Managed(),
		DriverPrefetch:   c.setup.Prefetch(),
		PageSequential:   pageSequential,
		SharedPerBlockKB: kb,
	}
	if c.setup.ZeroCopy() {
		e.ZeroCopy = true
		e.LinkBytesPerNs = c.cfg.PCIe.BytesPerNs() * c.cfg.PCIe.ZeroCopyEfficiency()
		e.LinkLatencyNs = c.cfg.PCIe.LatencyNs
	}
	return e
}
