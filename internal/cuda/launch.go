package cuda

import (
	"fmt"
	"strings"

	"uvmasim/internal/gpu"
	"uvmasim/internal/trace"
)

// Launch describes one kernel invocation: its analytic work spec, the
// buffers it reads and writes, and an optional functional body executed
// at launch (used by tests and examples to compute real results).
type Launch struct {
	Spec   gpu.KernelSpec
	Reads  []*Buffer
	Writes []*Buffer
	// SharedPerBlockKB overrides the shared allocation for this launch
	// only (0 = context/default).
	SharedPerBlockKB float64
	// SequentialDemand marks kernels whose page-level demand order is a
	// linear sweep even though their element-level access pattern is
	// irregular (nw's wavefronts, kmeans' point scan). The UVM driver's
	// density prefetcher coalesces such fault streams.
	SequentialDemand bool
	// Body, when non-nil, performs the kernel's real computation.
	Body func()
}

// Launch executes a kernel under the context's setup:
//
//   - standard / async: inputs must have been Uploaded; the kernel runs
//     for the analytic execution time.
//   - uvm: the kernel demand-faults input chunks as its progress cursor
//     reaches them, serializing fault batches and migration with compute.
//   - uvm_prefetch(_async): cudaMemPrefetchAsync is issued for every
//     input first; the kernel then consumes chunks as they arrive. For
//     regular access patterns demand follows the prefetch stream (a clean
//     software pipeline); for irregular ones demand order is shuffled, so
//     the kernel races ahead of the stream and faults anyway — the reason
//     lud gains nothing from prefetching (§4.1.2).
//   - uvm_zerocopy: the kernel accesses host-coherent memory in place;
//     every load and store pays link bandwidth/latency inside the exec
//     time, and no page ever migrates or writes back.
//   - uvm_smcopy: the kernel's SMs stage non-resident inputs into device
//     memory first (kernel-side bandwidth), then run at device speed.
func (c *Context) Launch(l Launch) error {
	// The error paths clone the names they box: interface-converting
	// l.Spec.Name (or a buffer's Name) directly would leak l itself, and
	// with it the callers' Reads/Writes slice literals — the launch path
	// must leave those on the stack to stay alloc-free.
	for _, bufs := range [2][]*Buffer{l.Reads, l.Writes} {
		for _, b := range bufs {
			if b == nil || b.freed {
				return fmt.Errorf("cuda: launch %q uses an invalid buffer", strings.Clone(l.Spec.Name))
			}
			if b.managed != c.setup.Managed() {
				return fmt.Errorf("cuda: launch %q: buffer %q allocation kind does not match setup %v",
					strings.Clone(l.Spec.Name), strings.Clone(b.Name), c.setup)
			}
		}
	}
	if err := l.Spec.Validate(); err != nil {
		return err
	}

	if c.tracer.Enabled() {
		c.tracer.Span(trace.Host, "cudaLaunchKernel", c.now, c.now+c.cfg.KernelLaunchNs,
			trace.Args{Detail: strings.Clone(l.Spec.Name)})
	}
	c.now += c.cfg.KernelLaunchNs

	// Prefetch pass (uvm_prefetch*): one driver call per input region.
	// The prefetch operations are enqueued on the kernel's stream, so the
	// kernel waits for them — the transfer is moved off the fault path
	// (and up to streaming efficiency) rather than overlapped with this
	// kernel. Redundant prefetches of resident data still serialize their
	// driver bookkeeping, which is what hurts multi-launch workloads like
	// nw (§4.1.2).
	if c.setup.Prefetch() {
		streamReady := c.now
		for _, b := range l.Reads {
			c.tracer.Span(trace.Host, "cudaMemPrefetchAsync", c.now, c.now+c.cfg.UVM.PrefetchCallNs,
				trace.Args{Bytes: b.Size})
			end := c.mgr.PrefetchRegion(b.region, c.now)
			c.now += c.cfg.UVM.PrefetchCallNs
			if end > streamReady {
				streamReady = end
			}
		}
		if streamReady > c.now {
			c.now = streamReady
		}
	}

	res := c.model.Launch(l.Spec, c.execConfig(l.SharedPerBlockKB, l.SequentialDemand))
	if c.tracer.Enabled() {
		c.tracer.Count("gpu.launches", 1)
		c.tracer.Count("gpu.traffic_bytes", res.TrafficBytes)
		c.tracer.Count("gpu.exec_ns", res.ExecTime)
	}
	start := c.now
	end := start + res.ExecTime*c.jitter(0.005)

	// The bus sums the transfer time that overlaps the kernel span, which
	// Breakdown moves from Kernel to Memcpy. Each reservation from here on
	// asks for a time between the cursor before and after its call, and
	// the window closes at the kernel's last cursor: the contract that
	// keeps the sum exact (sim.Link.OpenWindow).
	c.bus.OpenWindow(start)
	switch {
	case c.setup.ZeroCopy():
		// In-place access over the link: the analytic model already
		// priced every load and store at link bandwidth and latency, so
		// the exec time stands. Nothing migrates, nothing becomes
		// device-resident, nothing needs writing back — the link
		// traffic is accounted as transfer counters without reserving
		// the DMA links (SM-issued remote accesses bypass the copy
		// engines, so the whole cost lands in kernel time).
		storeBytes := float64(l.Spec.StoreBytes)
		c.ctrs.H2DBytes += res.TrafficBytes - storeBytes
		c.ctrs.D2HBytes += storeBytes
	case c.setup.SMCopy():
		// SM-driven staging: the kernel first copies its non-resident
		// input chunks into device memory itself, serializing the
		// staging with compute inside the kernel span (kernel-side
		// bandwidth, not copy-engine bandwidth), then runs at device
		// speed.
		end = c.paceSMCopy(l, start) + (end - start)
	case c.setup.Managed():
		end = c.paceManaged(l, res, start)
	}
	if k := (end - start) - c.bus.CloseWindow(end); k > 0 {
		c.kernelBusy += k
	}

	// Written managed buffers become fully resident and dirty. Both calls
	// are batched per region: MarkDeviceWritten does one capacity check
	// for the region's whole non-resident remainder (falling back to
	// per-chunk eviction only under pressure), and MarkDirty sets the
	// range's dirty bits 64 chunks at a time. Zero-copy writes go
	// straight to host memory, so they mark nothing: there is no
	// residency and no dirty state to write back.
	if !c.setup.ZeroCopy() {
		for _, b := range l.Writes {
			if b.managed {
				c.mgr.MarkDeviceWritten(b.region, end)
				c.mgr.MarkDirty(b.region, 0, b.Size)
			}
		}
	}

	dur := end - start
	if c.tracer.Enabled() {
		var readBytes int64
		for _, b := range l.Reads {
			readBytes += b.Size
		}
		c.tracer.Span(trace.Kernel, strings.Clone(l.Spec.Name), start, end, trace.Args{
			Bytes:  readBytes,
			Setup:  c.setup.String(),
			Detail: fmt.Sprintf("occupancy=%.3f", res.Occ.Fraction),
		})
	}
	c.ctrs.RecordKernel(dur, res.Occ.Fraction)
	c.ctrs.Inst.Add(res.Inst)
	c.ctrs.L1.Add(res.L1)
	c.now = end

	if l.Body != nil {
		l.Body()
	}
	return nil
}

// paceManaged walks the kernel's input chunks through the UVM manager,
// interleaving demand migration with compute progress, and returns the
// kernel end time.
func (c *Context) paceManaged(l Launch, res gpu.LaunchResult, start float64) float64 {
	var totalBytes int64
	chunks := 0
	for _, b := range l.Reads {
		chunks += b.region.NumChunks()
		totalBytes += b.Size
	}
	if chunks == 0 || totalBytes == 0 {
		return start + res.ExecTime*c.jitter(0.005)
	}

	// Demand order: regular kernels touch pages in address order;
	// irregular ones effectively shuffle it, unless the workload marked
	// its page-level demand as a linear sweep.
	sequential := l.SequentialDemand
	if !sequential {
		switch l.Spec.Access {
		case gpu.Irregular, gpu.Random:
		default:
			sequential = true
		}
	}

	chunkBytes := c.cfg.UVM.ChunkBytes
	if sequential {
		// Hot path: each input region is one extent-ranged manager call
		// that walks its chunks in address order — identical per-chunk
		// faulting and pacing to a DemandChunk loop (the goldens pin it),
		// minus the per-chunk call and bounds setup.
		computePerByte := res.ExecTime / float64(totalBytes) * c.jitter(0.005)
		cursor := start
		for _, b := range l.Reads {
			cursor = c.mgr.DemandRange(b.region, 0, b.region.NumChunks(), cursor, computePerByte)
		}
		return cursor
	}

	seq := c.demandSeq[:0]
	for bi, b := range l.Reads {
		for i := 0; i < b.region.NumChunks(); i++ {
			seq = append(seq, demandRef{buf: int32(bi), idx: int32(i)})
		}
	}
	c.demandSeq = seq
	c.rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

	// Demand migration efficiency depends on how well the driver's
	// density prefetcher coalesces the kernel's fault stream.
	var patternEff float64
	switch l.Spec.Access {
	case gpu.Strided:
		patternEff = 0.88
	case gpu.Irregular:
		patternEff = 0.55
	default: // Random
		patternEff = 0.38
	}

	computePerByte := res.ExecTime / float64(totalBytes) * c.jitter(0.005)
	cursor := start
	for _, d := range seq {
		b := l.Reads[d.buf]
		size := chunkBytes
		if rem := b.Size - int64(d.idx)*chunkBytes; rem < size {
			size = rem
		}
		avail := c.mgr.DemandChunk(b.region, int(d.idx), cursor, patternEff, false)
		cursor = avail + float64(size)*computePerByte
	}
	return cursor
}

// paceSMCopy models the uvm_smcopy staging pass: the kernel's own SMs
// bulk-copy every non-resident input chunk from host to device memory
// over the link before computing. Staging time is SM time — it extends
// the kernel span and never reserves the DMA links, so the breakdown
// attributes it to Kernel, not Memcpy (the defining difference from the
// copy-engine setups). Staged chunks become device-resident through the
// same capacity-checked path as device writes, so SM-copy keeps
// migration's eviction pressure and its reuse benefit across launches:
// already-resident chunks are skipped. Returns the staging end time.
func (c *Context) paceSMCopy(l Launch, start float64) float64 {
	bw := c.cfg.PCIe.BytesPerNs() * c.cfg.PCIe.SMCopyEfficiency()
	chunkBytes := c.cfg.UVM.ChunkBytes
	t := start
	for _, b := range l.Reads {
		var staged int64
		for i := 0; i < b.region.NumChunks(); i++ {
			if b.region.Resident(i) {
				continue
			}
			size := chunkBytes
			if rem := b.Size - int64(i)*chunkBytes; rem < size {
				size = rem
			}
			staged += size
		}
		if staged == 0 {
			continue
		}
		t += c.cfg.PCIe.LatencyNs + float64(staged)/bw
		c.mgr.MarkDeviceWritten(b.region, t)
		c.ctrs.H2DBytes += float64(staged)
		if c.tracer.Enabled() {
			// An instant, not a span: staging time lives inside the kernel
			// span that Launch emits over [start, end], so a nested span
			// would double-count Kernel-track busy time.
			c.tracer.Instant(trace.Kernel, "sm_copy_stage", t, trace.Args{
				Bytes: staged, Setup: c.setup.String(),
			})
		}
	}
	return t
}

// demandRef names one chunk of one launch input (an index into
// Launch.Reads plus a chunk index) in the shuffled demand order. It is
// pointer-free so the retained shuffle scratch stays off the garbage
// collector's scan list.
type demandRef struct {
	buf int32
	idx int32
}

// Breakdown is the paper's execution-time decomposition: data allocation
// (cudaMalloc/cudaMallocManaged/cudaFree), CPU-GPU data transfer, and GPU
// kernel time, plus the fixed process overhead and the wall total. All
// components are nanoseconds; the JSON keys of the figure documents
// carry that unit.
type Breakdown struct {
	Alloc    float64 `json:"alloc_ns"`
	Memcpy   float64 `json:"memcpy_ns"`
	Kernel   float64 `json:"kernel_ns"`
	Overhead float64 `json:"overhead_ns"`
	Total    float64 `json:"total_ns"`
}

// Breakdown reports the run's decomposition. Transfer activity that
// overlapped a kernel span is attributed to Memcpy and removed from the
// Kernel component, matching how the paper's CUPTI-based tooling
// attributes concurrent UVM migration; Launch sums that kernel time as
// each kernel ends.
func (c *Context) Breakdown() Breakdown {
	wall := c.now
	if t := c.bus.H2D.BusyUntil(); t > wall {
		wall = t
	}
	if t := c.bus.D2H.BusyUntil(); t > wall {
		wall = t
	}
	return Breakdown{
		Alloc:    c.allocBusy,
		Memcpy:   c.bus.BusyTotal(),
		Kernel:   c.kernelBusy,
		Overhead: c.overhead,
		Total:    wall + c.overhead,
	}
}
