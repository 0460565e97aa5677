package cuda

import (
	"math"
	"strings"
	"testing"

	"uvmasim/internal/trace"
)

// runMicro runs a vector_seq-shaped micro workload on ctx (alloc,
// upload, one streaming kernel, synchronize, consume, free) and returns
// its breakdown.
func runMicro(t *testing.T, ctx *Context) Breakdown {
	t.Helper()
	const n = int64(16 << 20) // 16M float32 elements
	x, err := ctx.Alloc("x", 4*n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ctx.Alloc("y", 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Upload(x); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Upload(y); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(Launch{
		Spec:   streamSpec(n),
		Reads:  []*Buffer{x, y},
		Writes: []*Buffer{y},
	}); err != nil {
		t.Fatal(err)
	}
	ctx.Synchronize()
	if err := ctx.Consume(y); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Buffer{x, y} {
		if err := ctx.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	return ctx.Breakdown()
}

// relClose reports whether a and b agree within a small relative
// tolerance (floating-point summation order differs between the two
// accountings).
func relClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// runOversub runs the oversubscription study's call sequence on ctx with
// a buffer of twice the managed capacity: two read-write streaming
// passes, so each pass evicts the chunks the next one needs and writes
// dirty victims back while the kernel runs, then Synchronize, Consume and
// Free.
func runOversub(t *testing.T, ctx *Context) Breakdown {
	t.Helper()
	buf, err := ctx.Alloc("oversub", 2*ctx.Config().ManagedCapacity())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if err := ctx.Launch(Launch{
			Spec:   streamSpec(buf.Size / 4),
			Reads:  []*Buffer{buf},
			Writes: []*Buffer{buf},
		}); err != nil {
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

// TestBreakdownReconcilesWithTrace is the observability cross-check: for
// every setup, the cuda.Breakdown components (Alloc, Memcpy, Kernel,
// Overhead) must reconcile with the busy time derived independently from
// the trace's per-track spans, and attaching a tracer must not perturb
// the simulated timing at all. The micro run never evicts; the oversub
// runs, one per managed setup on a 1 GiB device, evict and write back
// while kernels run, so transfer time overlaps kernel spans.
func TestBreakdownReconcilesWithTrace(t *testing.T) {
	for _, setup := range Registered() {
		t.Run(setup.String(), func(t *testing.T) {
			m := checkReconciles(t, DefaultSystemConfig(), setup, runMicro)

			// Setup-specific shape: managed runs must emit UVM activity
			// (faults under uvm, prefetch spans under uvm_prefetch*).
			if setup == UVM && m.Tracks[trace.UVMFaults].Instants == 0 {
				t.Error("uvm run recorded no fault events")
			}
			if setup.Prefetch() && m.Tracks[trace.Prefetch].Spans == 0 {
				t.Error("prefetch run recorded no prefetch spans")
			}
			if !setup.Managed() && m.Tracks[trace.PCIeH2D].Spans == 0 {
				t.Error("explicit-copy run recorded no H2D spans")
			}
		})
	}
	cfg := DefaultSystemConfig()
	cfg.GPU.HBMCapacity = 1 << 30
	for _, setup := range Registered() {
		if !setup.Managed() {
			continue
		}
		t.Run("oversub_"+setup.String(), func(t *testing.T) {
			m := checkReconciles(t, cfg, setup, runOversub)
			if !setup.ZeroCopy() && m.Counters["uvm.evicted_bytes"] == 0 {
				t.Error("oversub run evicted nothing")
			}
		})
	}
}

// checkReconciles runs run on a fresh context of cfg and setup twice,
// untraced and traced, checks that the two breakdowns are identical and
// that the traced one reconciles with the trace, and returns the trace's
// metrics.
func checkReconciles(t *testing.T, cfg SystemConfig, setup Setup, run func(*testing.T, *Context) Breakdown) trace.Metrics {
	t.Helper()
	const seed = 42
	plain := run(t, NewContext(cfg, setup, seed))
	ctx := NewContext(cfg, setup, seed)
	tr := trace.New()
	ctx.SetTracer(tr)
	traced := run(t, ctx)

	if plain != traced {
		t.Errorf("tracing perturbed the run:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if !tr.SpansMonotonic() {
		t.Error("trace has non-monotonic per-track spans")
	}

	m := tr.Metrics()

	// Memcpy: transfer-track busy time equals the bus busy total.
	if !relClose(m.TransferBusy(), traced.Memcpy) {
		t.Errorf("memcpy: trace %v vs breakdown %v", m.TransferBusy(), traced.Memcpy)
	}

	// Alloc: the host-track cudaMalloc*/cudaFree spans.
	var alloc float64
	for _, e := range tr.Events() {
		if e.Track == trace.Host && (strings.HasPrefix(e.Name, "cudaMalloc") || e.Name == "cudaFree") {
			alloc += e.Dur
		}
	}
	if !relClose(alloc, traced.Alloc) {
		t.Errorf("alloc: trace %v vs breakdown %v", alloc, traced.Alloc)
	}

	// Kernel: span lengths minus overlapped transfer time, exactly the
	// attribution Breakdown applies.
	var kernel float64
	spans := kernelSpans(tr)
	for _, e := range spans {
		k := e.Dur - tr.OverlapWithin(e.Start, e.End(), trace.PCIeH2D, trace.PCIeD2H, trace.Prefetch)
		if k > 0 {
			kernel += k
		}
	}
	if !relClose(kernel, traced.Kernel) {
		t.Errorf("kernel: trace %v vs breakdown %v", kernel, traced.Kernel)
	}

	// Overhead travels through the counter registry, and so does one
	// gpu.launches count per kernel span.
	if !relClose(m.Counters["process.overhead_ns"], traced.Overhead) {
		t.Errorf("overhead: trace %v vs breakdown %v",
			m.Counters["process.overhead_ns"], traced.Overhead)
	}
	if got := m.Counters["gpu.launches"]; got != float64(len(spans)) {
		t.Errorf("gpu.launches = %v, want one per kernel span (%d)", got, len(spans))
	}

	// Sanity: the components the trace reconstructs never exceed the
	// wall total.
	if traced.Total < kernel || traced.Total < m.TransferBusy() || traced.Total < alloc {
		t.Errorf("total %v smaller than a component (k=%v m=%v a=%v)",
			traced.Total, kernel, m.TransferBusy(), alloc)
	}
	return m
}

// TestResetDetachesTracer: a reset context has no tracer, like a fresh
// one, so a reused context's next run records nothing into the previous
// run's tracer: neither the context's own events and counts nor the
// transfers and faults recorded through the PCIe bus.
func TestResetDetachesTracer(t *testing.T) {
	cfg := DefaultSystemConfig()
	tr := trace.New()
	ctx := NewContext(cfg, UVM, 1)
	ctx.SetTracer(tr)
	runMicro(t, ctx)
	events, counts := tr.Len(), tr.Metrics().Counters
	if ctx.bus.Tracer() != tr {
		t.Fatal("SetTracer did not attach the tracer to the bus")
	}
	ctx.Reset(cfg, UVM, 2)
	if ctx.Tracer() != nil || ctx.bus.Tracer() != nil {
		t.Fatal("Reset left a tracer attached")
	}
	runMicro(t, ctx)
	if tr.Len() != events {
		t.Errorf("the run after Reset recorded %d events into the old tracer", tr.Len()-events)
	}
	for name, v := range tr.Metrics().Counters {
		if v != counts[name] {
			t.Errorf("the run after Reset moved counter %s: %v -> %v", name, counts[name], v)
		}
	}
}
