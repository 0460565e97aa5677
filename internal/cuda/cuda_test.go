package cuda

import (
	"math"
	"testing"

	"uvmasim/internal/gpu"
	"uvmasim/internal/trace"
)

// streamSpec is a vector_seq-like kernel over n float32 elements.
// kernelSpans returns the kernel spans a tracer recorded, in launch
// order.
func kernelSpans(tr *trace.Tracer) []trace.Event {
	var spans []trace.Event
	for _, e := range tr.Events() {
		if e.Track == trace.Kernel && !e.Instant {
			spans = append(spans, e)
		}
	}
	return spans
}

func streamSpec(n int64) gpu.KernelSpec {
	return gpu.KernelSpec{
		Name:            "stream",
		Blocks:          4096,
		ThreadsPerBlock: 256,
		LoadBytes:       4 * n,
		StoreBytes:      4 * n,
		Flops:           40 * float64(n),
		IntOps:          6 * float64(n),
		CtrlOps:         float64(n) / 8,
		TileBytes:       16 << 10,
		Access:          gpu.Sequential,
		WorkingSetKB:    8,
	}
}

func irregularSpec(n int64) gpu.KernelSpec {
	s := streamSpec(n)
	s.Name = "irregular"
	s.Access = gpu.Irregular
	s.LoadAccessBytes = s.LoadBytes * 3
	return s
}

// runStream executes the canonical alloc/upload/launch/download/free flow
// and returns the breakdown.
func runStream(t *testing.T, setup Setup, n int64, seed int64) Breakdown {
	t.Helper()
	ctx := NewContext(DefaultSystemConfig(), setup, seed)
	buf, err := ctx.Alloc("v", 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Upload(buf); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(Launch{Spec: streamSpec(n), Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
		t.Fatal(err)
	}
	ctx.Synchronize()
	if err := ctx.Consume(buf); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(buf); err != nil {
		t.Fatal(err)
	}
	return ctx.Breakdown()
}

const largeN = 128 << 20 // 512 MB footprint ("Large" 1D input)

func TestSetupNames(t *testing.T) {
	want := []string{"standard", "async", "uvm", "uvm_prefetch", "uvm_prefetch_async"}
	for i, s := range PaperSetups() {
		if s.String() != want[i] {
			t.Errorf("setup %d name = %q, want %q", i, s, want[i])
		}
		parsed, err := ParseSetup(want[i])
		if err != nil || parsed != s {
			t.Errorf("ParseSetup(%q) = %v, %v", want[i], parsed, err)
		}
	}
	if _, err := ParseSetup("bogus"); err == nil {
		t.Error("ParseSetup should reject unknown names")
	}
	if !UVMPrefetchAsync.Managed() || !UVMPrefetchAsync.Prefetch() || !UVMPrefetchAsync.AsyncCopy() {
		t.Error("uvm_prefetch_async should enable all three features")
	}
	if Standard.Managed() || Standard.Prefetch() || Standard.AsyncCopy() {
		t.Error("standard should enable none")
	}
}

func TestStandardFlowBreakdown(t *testing.T) {
	b := runStream(t, Standard, largeN, 1)
	if b.Alloc <= 0 || b.Memcpy <= 0 || b.Kernel <= 0 || b.Overhead <= 0 {
		t.Fatalf("all components should be positive: %+v", b)
	}
	// Components must account for the total (CPU never idles elsewhere in
	// this flow).
	sum := b.Alloc + b.Memcpy + b.Kernel + b.Overhead
	if math.Abs(sum-b.Total)/b.Total > 0.02 {
		t.Errorf("components sum %v != total %v", sum, b.Total)
	}
	// H2D + D2H of 512 MB at ~24 GB/s effective: tens of ms; memcpy must
	// dominate the kernel for this memory-bound workload.
	if b.Memcpy < b.Kernel {
		t.Errorf("standard memcpy (%v) should dominate kernel (%v)", b.Memcpy, b.Kernel)
	}
}

func TestUVMSkipsExplicitCopyButMigrates(t *testing.T) {
	std := runStream(t, Standard, largeN, 2)
	uvm := runStream(t, UVM, largeN, 2)
	// UVM moves data during the kernel: kernel component inflates, and
	// transfer busy time persists (migration + writeback).
	if uvm.Kernel <= std.Kernel {
		t.Errorf("uvm kernel (%v) should exceed standard kernel (%v)", uvm.Kernel, std.Kernel)
	}
	if uvm.Memcpy <= 0 {
		t.Errorf("uvm should still show transfer busy time (migration), got %v", uvm.Memcpy)
	}
	// Transfer savings: dirty writeback replaces the full D2H, and
	// fault-granularity H2D overlaps the kernel (§4.1.1: 31-35% savings).
	if uvm.Memcpy >= std.Memcpy {
		t.Errorf("uvm transfer time (%v) should be below standard (%v)", uvm.Memcpy, std.Memcpy)
	}
}

func TestPrefetchBeatsOnDemandForSequential(t *testing.T) {
	uvm := runStream(t, UVM, largeN, 3)
	pf := runStream(t, UVMPrefetch, largeN, 3)
	if pf.Total >= uvm.Total {
		t.Errorf("uvm_prefetch total (%v) should beat uvm (%v) on a sequential workload",
			pf.Total, uvm.Total)
	}
	if pf.Kernel >= uvm.Kernel {
		t.Errorf("prefetch should cut kernel stall time: %v >= %v", pf.Kernel, uvm.Kernel)
	}
}

// Multi-launch irregular workloads (lud's per-diagonal kernels, nw's
// alternating kernels) gain nothing from prefetching: the data is
// resident after the first sweep, yet every launch pays the redundant
// prefetch's driver bookkeeping (§4.1.2).
func TestPrefetchUselessForMultiLaunchIrregular(t *testing.T) {
	const launches = 12
	run := func(setup Setup) Breakdown {
		ctx := NewContext(DefaultSystemConfig(), setup, 4)
		buf, err := ctx.Alloc("v", 4*largeN)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Upload(buf); err != nil {
			t.Fatal(err)
		}
		spec := irregularSpec(largeN)
		spec.Flops /= launches
		spec.IntOps /= launches
		spec.CtrlOps /= launches
		for i := 0; i < launches; i++ {
			if err := ctx.Launch(Launch{Spec: spec, Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
				t.Fatal(err)
			}
		}
		ctx.Synchronize()
		if err := ctx.Consume(buf); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Free(buf); err != nil {
			t.Fatal(err)
		}
		return ctx.Breakdown()
	}
	uvm := run(UVM)
	pf := run(UVMPrefetch)
	gainIrr := 1 - pf.Total/uvm.Total
	// Only the first sweep's migration can be accelerated; every later
	// launch pays redundant driver bookkeeping, so the gain stays small
	// (possibly negative).
	if gainIrr > 0.12 {
		t.Errorf("per-launch prefetch gained %.1f%% on a multi-launch irregular workload; expected <=12%%",
			100*gainIrr)
	}
}

func TestSecondKernelOnResidentDataIsCheap(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), UVM, 5)
	tr := trace.New()
	ctx.SetTracer(tr)
	buf, _ := ctx.Alloc("v", 4*largeN)
	spec := streamSpec(largeN)
	for i := 0; i < 2; i++ {
		if err := ctx.Launch(Launch{Spec: spec, Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
			t.Fatal(err)
		}
	}
	spans := kernelSpans(tr)
	if len(spans) != 2 {
		t.Fatalf("%d kernel spans, want 2", len(spans))
	}
	first, second := spans[0].Dur, spans[1].Dur
	if second >= first/2 {
		t.Errorf("second kernel on resident data (%v) should be far cheaper than first (%v)", second, first)
	}
}

func TestManagedMismatchErrors(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), Standard, 6)
	buf, _ := ctx.Alloc("v", 1<<20)
	if err := ctx.Consume(buf); err != nil {
		t.Fatal(err)
	}
	// Managed buffer in a standard context.
	mb, err := ctx.MallocManaged("m", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	err = ctx.Launch(Launch{Spec: streamSpec(1 << 10), Reads: []*Buffer{mb}})
	if err == nil {
		t.Error("launch with mismatched buffer kind should fail")
	}
	if err := ctx.MemcpyH2D(mb); err == nil {
		t.Error("explicit memcpy on managed buffer should fail")
	}
	if err := ctx.Free(mb); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(buf); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(buf); err == nil {
		t.Error("double free should fail")
	}
	if err := ctx.MemcpyH2D(buf); err == nil {
		t.Error("memcpy on freed buffer should fail")
	}
	if err := ctx.Launch(Launch{Spec: streamSpec(1 << 10), Reads: []*Buffer{buf}}); err == nil {
		t.Error("launch with freed buffer should fail")
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	a := runStream(t, UVMPrefetchAsync, largeN, 42)
	b := runStream(t, UVMPrefetchAsync, largeN, 42)
	if a != b {
		t.Errorf("same seed should reproduce identical breakdowns:\n%+v\n%+v", a, b)
	}
	c := runStream(t, UVMPrefetchAsync, largeN, 43)
	if a == c {
		t.Errorf("different seeds should differ")
	}
}

func TestLaunchBodyRuns(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), Standard, 7)
	buf, _ := ctx.Alloc("v", 1<<20)
	ran := false
	err := ctx.Launch(Launch{
		Spec:  streamSpec(1 << 10),
		Reads: []*Buffer{buf},
		Body:  func() { ran = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("launch body did not run")
	}
}

func TestCountersPopulated(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), UVMPrefetchAsync, 8)
	buf, _ := ctx.Alloc("v", 4*largeN)
	if err := ctx.Launch(Launch{Spec: streamSpec(largeN), Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
		t.Fatal(err)
	}
	ctx.Synchronize()
	ctrs := ctx.Counters()
	if ctrs.Inst.Total() <= 0 {
		t.Error("instruction mix should be populated")
	}
	if ctrs.UVM.PrefetchBytes <= 0 {
		t.Error("prefetch bytes should be recorded")
	}
	if ctrs.Occupancy() <= 0 || ctrs.Occupancy() > 1 {
		t.Errorf("occupancy %v out of range", ctrs.Occupancy())
	}
	if ctrs.KernelBusyNs <= 0 {
		t.Error("kernel busy time should be recorded")
	}
}

func TestDeviceOOM(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), Standard, 9)
	if _, err := ctx.Malloc("too-big", 100<<30); err == nil {
		t.Error("allocating beyond HBM capacity should fail")
	}
}

func TestAllocKindFollowsSetup(t *testing.T) {
	for _, s := range Registered() {
		ctx := NewContext(DefaultSystemConfig(), s, 10)
		b, err := ctx.Alloc("x", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if b.Managed() != s.Managed() {
			t.Errorf("setup %v: buffer managed=%v, want %v", s, b.Managed(), s.Managed())
		}
	}
}
