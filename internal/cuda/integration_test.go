package cuda

import (
	"math/rand"
	"testing"

	"uvmasim/internal/gpu"
	"uvmasim/internal/trace"
)

// Property: for every setup and a randomized single-kernel flow, the
// breakdown is internally consistent — components non-negative, total at
// least the sum of serial CPU-side pieces, and deterministic per seed.
func TestQuickBreakdownConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		setups := Registered()
		setup := setups[rng.Intn(len(setups))]
		n := int64(1+rng.Intn(64)) << 20 // 1..64M elements
		seed := rng.Int63()

		runOnce := func() Breakdown {
			ctx := NewContext(DefaultSystemConfig(), setup, seed)
			buf, err := ctx.Alloc("b", 4*n)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Upload(buf); err != nil {
				t.Fatal(err)
			}
			spec := streamSpec(n)
			spec.Access = gpu.Access(rng.Intn(4))
			seqSpec := spec // capture before the closure below mutates rng state
			if err := ctx.Launch(Launch{Spec: seqSpec, Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
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
		b := runOnce()
		if b.Alloc <= 0 || b.Kernel < 0 || b.Memcpy < 0 || b.Overhead <= 0 {
			t.Fatalf("%v: bad components %+v", setup, b)
		}
		if b.Total < b.Alloc+b.Overhead {
			t.Fatalf("%v: total %v below serial floor", setup, b)
		}
		if b.Total < b.Kernel {
			t.Fatalf("%v: total below kernel component", setup)
		}
	}
}

// Eviction integration: a managed working set beyond device capacity
// must run (slowly) rather than fail, and record eviction traffic.
func TestManagedOversubscriptionRuns(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.GPU.HBMCapacity = 256 << 20 // shrink the device for the test
	ctx := NewContext(cfg, UVMPrefetch, 3)
	buf, err := ctx.Alloc("big", 400<<20) // 1.6x capacity
	if err != nil {
		t.Fatal(err)
	}
	spec := streamSpec(100 << 20)
	for pass := 0; pass < 2; pass++ {
		if err := ctx.Launch(Launch{Spec: spec, Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Synchronize()
	if ctx.Counters().UVM.EvictedBytes <= 0 {
		t.Error("oversubscribed managed run should evict")
	}
	if err := ctx.Free(buf); err != nil {
		t.Fatal(err)
	}
	// Standard allocation of the same size must fail outright.
	ctx2 := NewContext(cfg, Standard, 3)
	if _, err := ctx2.Malloc("big", 400<<20); err == nil {
		t.Error("cudaMalloc beyond capacity must fail")
	}
}

func TestHostCompute(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), Standard, 5)
	before := ctx.Now()
	ctx.HostCompute(123456)
	if got := ctx.Now() - before; got != 123456 {
		t.Errorf("HostCompute advanced %v, want 123456", got)
	}
	b := ctx.Breakdown()
	if b.Alloc != 0 || b.Memcpy != 0 || b.Kernel != 0 {
		t.Errorf("host compute must not be attributed to components: %+v", b)
	}
	if b.Total-b.Overhead < 123456 {
		t.Errorf("host compute must count toward the total")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative host compute should panic")
		}
	}()
	ctx.HostCompute(-1)
}

// Transfers under different setups must reconcile with the counter view:
// explicit copies count H2D/D2H bytes, UVM counts migration/prefetch.
func TestTransferCounterAttribution(t *testing.T) {
	const n = 32 << 20
	std := NewContext(DefaultSystemConfig(), Standard, 9)
	buf, _ := std.Alloc("b", 4*n)
	if err := std.Upload(buf); err != nil {
		t.Fatal(err)
	}
	if std.Counters().H2DBytes != 4*n {
		t.Errorf("standard H2D bytes = %v, want %v", std.Counters().H2DBytes, 4*n)
	}
	if std.Counters().UVM.MigratedBytes != 0 {
		t.Errorf("standard run must not migrate")
	}

	uvm := NewContext(DefaultSystemConfig(), UVM, 9)
	mbuf, _ := uvm.Alloc("b", 4*n)
	if err := uvm.Upload(mbuf); err != nil { // no-op
		t.Fatal(err)
	}
	if err := uvm.Launch(Launch{Spec: streamSpec(n), Reads: []*Buffer{mbuf}, Writes: []*Buffer{mbuf}}); err != nil {
		t.Fatal(err)
	}
	c := uvm.Counters()
	if c.H2DBytes != 0 {
		t.Errorf("uvm run must not do explicit copies, saw %v", c.H2DBytes)
	}
	if c.UVM.MigratedBytes < 4*n*0.95 {
		t.Errorf("uvm should migrate the touched footprint, saw %v of %v", c.UVM.MigratedBytes, 4*n)
	}
	if c.UVM.PageFaults <= 0 || c.UVM.FaultBatches <= 0 {
		t.Errorf("uvm run should fault: %+v", c.UVM)
	}

	pf := NewContext(DefaultSystemConfig(), UVMPrefetch, 9)
	pbuf, _ := pf.Alloc("b", 4*n)
	if err := pf.Launch(Launch{Spec: streamSpec(n), Reads: []*Buffer{pbuf}, Writes: []*Buffer{pbuf}}); err != nil {
		t.Fatal(err)
	}
	if pf.Counters().UVM.PrefetchBytes < 4*n*0.95 {
		t.Errorf("prefetch setup should stream the footprint, saw %v", pf.Counters().UVM.PrefetchBytes)
	}
	if pf.Counters().UVM.MigratedBytes != 0 {
		t.Errorf("prefetched run should not demand-migrate, saw %v", pf.Counters().UVM.MigratedBytes)
	}
}

// Kernel spans must be non-overlapping and ordered (synchronous launch
// semantics).
func TestKernelSpansOrdered(t *testing.T) {
	ctx := NewContext(DefaultSystemConfig(), Async, 11)
	tr := trace.New()
	ctx.SetTracer(tr)
	buf, _ := ctx.Alloc("b", 64<<20)
	if err := ctx.Upload(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ctx.Launch(Launch{Spec: streamSpec(16 << 20), Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
			t.Fatal(err)
		}
	}
	spans := kernelSpans(tr)
	if len(spans) != 5 {
		t.Fatalf("spans = %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End() {
			t.Errorf("kernel spans overlap: %+v then %+v", spans[i-1], spans[i])
		}
	}
}

// TestEvictionBookkeepingAcrossSetups drives every managed setup past
// the device budget and checks the indexed residency bookkeeping the
// O(1) evictor maintains: eviction counters advance, the resident
// footprint never exceeds the managed capacity, and the per-region O(1)
// summaries agree with manager-level accounting.
func TestEvictionBookkeepingAcrossSetups(t *testing.T) {
	for _, setup := range Registered() {
		// Zero-copy is managed but never makes anything device-resident,
		// so there is nothing to evict.
		if !setup.Managed() || setup.ZeroCopy() {
			continue
		}
		setup := setup
		t.Run(setup.String(), func(t *testing.T) {
			cfg := DefaultSystemConfig()
			cfg.GPU.HBMCapacity = 192 << 20
			capacity := int64(float64(cfg.GPU.HBMCapacity) * cfg.ManagedCapacityFraction)
			ctx := NewContext(cfg, setup, 11)
			a, err := ctx.Alloc("a", 150<<20)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ctx.Alloc("b", 150<<20) // together 1.6x capacity
			if err != nil {
				t.Fatal(err)
			}
			spec := streamSpec(30 << 20)
			for pass := 0; pass < 2; pass++ {
				for _, buf := range []*Buffer{a, b} {
					if err := ctx.Launch(Launch{Spec: spec, Reads: []*Buffer{buf}, Writes: []*Buffer{buf}}); err != nil {
						t.Fatal(err)
					}
					ctx.Synchronize()
					if got := ctx.mgr.ResidentBytes(); got > capacity {
						t.Fatalf("resident %d exceeds managed capacity %d", got, capacity)
					}
				}
			}
			uvmStats := ctx.Counters().UVM
			if uvmStats.Evictions <= 0 || uvmStats.EvictedBytes <= 0 {
				t.Errorf("oversubscribed run should evict: %+v", uvmStats)
			}
			if sum := a.region.ResidentBytes() + b.region.ResidentBytes(); sum != ctx.mgr.ResidentBytes() {
				t.Errorf("region summaries %d disagree with manager residency %d",
					sum, ctx.mgr.ResidentBytes())
			}
			for _, buf := range []*Buffer{a, b} {
				if err := ctx.Free(buf); err != nil {
					t.Fatal(err)
				}
			}
			if got := ctx.mgr.ResidentBytes(); got != 0 {
				t.Errorf("resident bytes leaked after free: %d", got)
			}
		})
	}
}
