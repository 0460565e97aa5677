package uvmasim_test

// One testing.B benchmark per table/figure of the paper's evaluation.
// Each benchmark regenerates its artifact's data end to end (allocation,
// transfers, kernels, counters) and reports the headline quantity the
// paper derives from it as a custom metric, so `go test -bench=.` prints
// the reproduction's numbers next to the harness cost.

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uvmasim/internal/core"
	"uvmasim/internal/counters"
	"uvmasim/internal/cuda"
	"uvmasim/internal/pcie"
	"uvmasim/internal/sched"
	"uvmasim/internal/serve"
	"uvmasim/internal/sim"
	"uvmasim/internal/store"
	"uvmasim/internal/topo"
	"uvmasim/internal/uvm"
	"uvmasim/internal/workloads"
)

// benchRunner keeps repetitions small: benchmarks measure the harness,
// the statistics do not need 30 repetitions per b.N iteration. The cell
// cache is disabled so every b.N iteration re-simulates instead of
// replaying memoized cells.
func benchRunner() *core.Runner {
	r := core.NewRunner()
	r.Iterations = 3
	r.Cache = false
	return r
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table3Doc().Text() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4Distributions regenerates the micro exec-time
// distributions over all six input sizes.
func BenchmarkFig4Distributions(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		study, err := r.Distributions(workloads.Micro(), workloads.AllSizes)
		if err != nil {
			b.Fatal(err)
		}
		if len(study.Cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig5CV regenerates the std/mean stability study; the metric is
// the geo-mean CV gap between Mega and Large (positive = Mega noisier,
// Takeaway 1).
func BenchmarkFig5CV(b *testing.B) {
	r := benchRunner()
	r.Iterations = 8
	var gap float64
	for i := 0; i < b.N; i++ {
		study, err := r.Distributions(workloads.Micro(),
			[]workloads.Size{workloads.Large, workloads.Mega})
		if err != nil {
			b.Fatal(err)
		}
		gap = study.GeoMeanCV(workloads.Mega) - study.GeoMeanCV(workloads.Large)
	}
	b.ReportMetric(gap, "cv-gap")
}

// BenchmarkFig6MegaNoise reports the Mega-input memcpy coefficient of
// variation.
func BenchmarkFig6MegaNoise(b *testing.B) {
	r := benchRunner()
	r.Iterations = 10
	var cv float64
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		cv = float64(f.MemcpyCV)
	}
	b.ReportMetric(cv, "memcpy-cv")
}

// benchBreakdown measures a five-setup comparison and reports the
// geomean improvements of uvm_prefetch and the combination (the §4.1
// headline numbers) as metrics.
func benchBreakdown(b *testing.B, ws []workloads.Workload, size workloads.Size) {
	r := benchRunner()
	var pf, combo float64
	for i := 0; i < b.N; i++ {
		study, err := r.BreakdownComparison(ws, size)
		if err != nil {
			b.Fatal(err)
		}
		pf = study.GeoMeanImprovement(cuda.UVMPrefetch)
		combo = study.GeoMeanImprovement(cuda.UVMPrefetchAsync)
	}
	b.ReportMetric(pf*100, "%uvm_prefetch")
	b.ReportMetric(combo*100, "%combo")
}

func BenchmarkFig7MicroLarge(b *testing.B) {
	benchBreakdown(b, workloads.Micro(), workloads.Large)
}

func BenchmarkFig7MicroSuper(b *testing.B) {
	benchBreakdown(b, workloads.Micro(), workloads.Super)
}

func BenchmarkFig8AppsSuper(b *testing.B) {
	benchBreakdown(b, workloads.Apps(), workloads.Super)
}

// BenchmarkFig9InstructionMix reports gemm's async control-instruction
// inflation (paper: +39.98%).
func BenchmarkFig9InstructionMix(b *testing.B) {
	r := benchRunner()
	var inflation float64
	for i := 0; i < b.N; i++ {
		study, err := r.CounterComparison([]string{"gemm", "lud", "yolov3"}, workloads.Large)
		if err != nil {
			b.Fatal(err)
		}
		std, err := study.Row("gemm", cuda.Standard)
		if err != nil {
			b.Fatal(err)
		}
		pfa, err := study.Row("gemm", cuda.UVMPrefetchAsync)
		if err != nil {
			b.Fatal(err)
		}
		inflation = (pfa.CtrlInst/std.CtrlInst - 1) * 100
	}
	b.ReportMetric(inflation, "%ctrl-inflation")
}

// BenchmarkFig10CacheMiss reports lud's async load-miss-rate reduction
// (paper: -35.96%).
func BenchmarkFig10CacheMiss(b *testing.B) {
	r := benchRunner()
	var reduction float64
	for i := 0; i < b.N; i++ {
		study, err := r.CounterComparison([]string{"gemm", "lud", "yolov3"}, workloads.Large)
		if err != nil {
			b.Fatal(err)
		}
		std, err := study.Row("lud", cuda.Standard)
		if err != nil {
			b.Fatal(err)
		}
		asy, err := study.Row("lud", cuda.Async)
		if err != nil {
			b.Fatal(err)
		}
		reduction = (1 - asy.LoadMissRate/std.LoadMissRate) * 100
	}
	b.ReportMetric(reduction, "%load-miss-reduction")
}

func BenchmarkFig11BlockSweep(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.SweepBlocks(workloads.Large,
			[]int{4096, 2048, 1024, 512, 256, 128, 64, 32, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12ThreadSweep reports the standard-kernel slowdown of a
// 32-thread launch versus 128 threads (paper: 3.95x).
func BenchmarkFig12ThreadSweep(b *testing.B) {
	r := benchRunner()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		sw, err := r.SweepThreads(workloads.Large, []int{1024, 512, 256, 128, 64, 32})
		if err != nil {
			b.Fatal(err)
		}
		p32, err := sw.Point(32)
		if err != nil {
			b.Fatal(err)
		}
		p128, err := sw.Point(128)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = p32.BySetup[0].Kernel / p128.BySetup[0].Kernel
	}
	b.ReportMetric(slowdown, "x-kernel-32t-vs-128t")
}

func BenchmarkFig13SharedSweep(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.SweepShared(workloads.Large,
			[]float64{2, 4, 8, 16, 32, 64, 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14MultiJob reports the inter-job pipeline improvement
// (paper estimate: >30%).
func BenchmarkFig14MultiJob(b *testing.B) {
	r := benchRunner()
	var imp float64
	for i := 0; i < b.N; i++ {
		res, err := r.MultiJob("vector_seq", cuda.UVMPrefetchAsync, workloads.Super, 8)
		if err != nil {
			b.Fatal(err)
		}
		imp = res.Improvement * 100
	}
	b.ReportMetric(imp, "%pipeline-improvement")
}

// BenchmarkOversubscription regenerates the full oversub artifact on the
// default dense ratio grid — the sweep whose per-eviction full scan made
// the pre-refactor `uvmbench oversub` CPU-bound in uvm.makeRoom. It is
// a row of the benchmark ledger (BENCH.json, scripts/ledger), whose
// check fails CI past 3x its ns/op or 2x its allocs/op.
func BenchmarkOversubscription(b *testing.B) {
	r := benchRunner()
	var evicted float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study, err := r.Oversubscription(cuda.UVMPrefetch, core.DefaultOversubRatios, 2)
		if err != nil {
			b.Fatal(err)
		}
		evicted = 0
		for _, p := range study.Points {
			evicted += p.EvictedBytes
		}
		if evicted == 0 {
			b.Fatal("oversubscribed sweep did not evict")
		}
	}
	b.ReportMetric(evicted/(1<<30), "GiB-evicted")
}

// BenchmarkMultiGPU regenerates the full multi-GPU schedule artifact —
// the default 1/2/4-GPU sweep over both topologies, serial and
// pipelined, so 12 DES schedules plus the analytic §6 oracle — with the
// cell cache off, so every op pays the workload measurement once and
// every schedule replay. It is a row of the benchmark ledger
// (BENCH.json, scripts/ledger).
func BenchmarkMultiGPU(b *testing.B) {
	r := benchRunner()
	var retained float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, workloads.Super,
			8, []int{1, 2, 4}, []topo.Kind{topo.PCIeSwitch, topo.NVLink}, sched.LeastLoaded)
		if err != nil {
			b.Fatal(err)
		}
		retained = 0
		for _, p := range study.Points {
			if p.Topology == string(topo.PCIeSwitch) && p.GPUs == 4 {
				retained = 100 * p.Improvement
			}
		}
		if study.Analytic.Improvement <= 0 {
			b.Fatal("analytic projection shows no pipeline gain")
		}
	}
	b.ReportMetric(retained, "%gain-4gpu-switch")
}

// BenchmarkFigureSuite regenerates the fig4 distribution grid plus the
// fig7 Large breakdown on one serial worker with allocation accounting —
// the end-to-end hot loop the GC-free refactor targets. It is a row of
// the benchmark ledger (BENCH.json, scripts/ledger), gated on ns/op and
// allocs/op.
func BenchmarkFigureSuite(b *testing.B) {
	r := benchRunner()
	r.Parallelism = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Distributions(workloads.Micro(), []workloads.Size{workloads.Large}); err != nil {
			b.Fatal(err)
		}
		if _, err := r.BreakdownComparison(workloads.Micro(), workloads.Large); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdCellMegaUVM measures cold single-cell latency at the
// heaviest iterating cell — vector_seq under the combination setup at
// the Mega (32 GB) input — with the default executor and iteration
// fan-out. This is the latency the iteration fan-out targets: without it
// a lone cold cell runs its iterations serially and leaves every other
// executor worker idle, so the ledger's 1-core and multi-core rows
// (BENCH.json) bracket the speedup. A fresh seed per op keeps every
// measurement cold.
func BenchmarkColdCellMegaUVM(b *testing.B) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		r.Iterations = 8
		r.Cache = false
		r.BaseSeed = int64(i + 1)
		res, err := r.Measure(w, cuda.UVMPrefetchAsync, workloads.Mega)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Breakdowns) != 8 {
			b.Fatalf("cold cell returned %d breakdowns", len(res.Breakdowns))
		}
	}
}

// BenchmarkServeColdFig7 measures the serve cold path end to end: a
// fresh server (empty cell cache, no store) handles a POST for one
// fig7 figure, so the request pays full simulation. The intra-cell
// fan-out bounds this first-request latency on multi-core servers; the
// single-core row is the serial reference.
func BenchmarkServeColdFig7(b *testing.B) {
	quiet := log.New(io.Discard, "", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := serve.New(serve.Config{Log: quiet})
		spec := fmt.Sprintf(`{"figure":"fig7","iters":2,"seed":%d}`, i+1)
		req := httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(spec))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("POST status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkStoreWarmHit measures the warm-hit path of the persistent
// cell store in isolation: the store is populated once, then every b.N
// iteration builds a fresh runner (fresh in-memory cache) and re-measures
// the same cell, so each Measure resolves from disk instead of
// simulating. It is a row of the benchmark ledger (BENCH.json,
// scripts/ledger).
func BenchmarkStoreWarmHit(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	w := workloads.Micro()[0]
	seed := core.NewRunner()
	seed.Iterations = 3
	seed.Store = st
	if _, err := seed.Measure(w, cuda.UVMPrefetch, workloads.Large); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		r.Iterations = 3
		r.Store = st
		res, err := r.Measure(w, cuda.UVMPrefetch, workloads.Large)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Breakdowns) == 0 {
			b.Fatal("warm hit returned no breakdowns")
		}
		if r.StoreHits() != 1 {
			b.Fatalf("cell simulated instead of hitting the store (hits=%d)", r.StoreHits())
		}
	}
}

// benchUVMEvictionMega churns a Mega-size (32 GB) managed region through
// sequential demand faults against an 8 GB budget, so steady state evicts
// on every fault — the driver-level hot loop behind the oversub sweep,
// isolated from kernels and figure rendering.
func benchUVMEvictionMega(b *testing.B, reference bool) {
	const capacity = 8 << 30
	footprint := workloads.Mega.Footprint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bus := pcie.New(pcie.DefaultConfig())
		var stats counters.UVMStats
		m := uvm.NewManager(uvm.DefaultConfig(), bus, capacity, &stats)
		m.SetReferenceEviction(reference)
		r, err := m.Register(footprint)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		now := 0.0
		for pass := 0; pass < 2; pass++ {
			for c := 0; c < r.NumChunks(); c++ {
				now = m.DemandChunk(r, c, now, 1, true)
			}
		}
		if stats.Evictions == 0 {
			b.Fatal("churn did not evict")
		}
	}
}

func BenchmarkUVMEvictionMega(b *testing.B) { benchUVMEvictionMega(b, false) }

// BenchmarkUVMEvictionMegaScan runs the same churn through the retained
// reference scan evictor; the ratio against BenchmarkUVMEvictionMega is
// the data-structure speedup in isolation.
func BenchmarkUVMEvictionMegaScan(b *testing.B) { benchUVMEvictionMega(b, true) }

// BenchmarkUVMOversubStream drives one warm uvm.Manager through the
// oversub cell's call sequence under uvm_prefetch — PrefetchRegion,
// DemandRange, MarkDeviceWritten and MarkDirty per pass, two passes over
// a region twice the default profile's managed capacity — so every
// chunk the stream makes resident evicts one: the evicting run paths
// behind the oversub sweep, isolated from kernels and figure rendering.
// An untimed first pass warms the arenas, so a timed op allocates
// nothing. evictions/op is its deterministic work count. It is
// a row of the benchmark ledger (BENCH.json, scripts/ledger).
func BenchmarkUVMOversubStream(b *testing.B) {
	cfg := cuda.DefaultSystemConfig()
	capacity := cfg.ManagedCapacity()
	bus := pcie.New(cfg.PCIe)
	var stats counters.UVMStats
	m := uvm.NewManager(cfg.UVM, bus, capacity, &stats)
	op := func() {
		m.Reset()
		bus.Reset()
		stats = counters.UVMStats{}
		r, err := m.Register(2 * capacity)
		if err != nil {
			b.Fatal(err)
		}
		now := 0.0
		for pass := 0; pass < 2; pass++ {
			now = m.PrefetchRegion(r, now)
			now = m.DemandRange(r, 0, r.NumChunks(), now, 1e-3)
			m.MarkDeviceWritten(r, now)
			m.MarkDirty(r, 0, r.Size)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(stats.Evictions, "evictions/op")
}

// BenchmarkContextCycle measures one full simulated process — context
// creation through a vector_seq run — with allocation accounting, so the
// hot-path allocation cuts in internal/cuda and internal/sim stay
// visible in `go test -bench`.
func BenchmarkContextCycle(b *testing.B) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cuda.DefaultSystemConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := cuda.NewContext(cfg, cuda.UVMPrefetchAsync, int64(i))
		if err := w.Run(ctx, workloads.Large); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagedIteration measures one warm managed iteration: a
// reused context reset to a fresh seed and run through vector_seq at
// Super (2048 chunks per buffer) under plain uvm and uvm_prefetch — the
// per-iteration work of a cold request's managed cells, with allocation
// accounting. chunks/op is its deterministic work count: the managed
// chunks one iteration migrates or prefetches.
func BenchmarkManagedIteration(b *testing.B) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cuda.DefaultSystemConfig()
	for _, setup := range []cuda.Setup{cuda.UVM, cuda.UVMPrefetch} {
		setup := setup
		b.Run(setup.String(), func(b *testing.B) {
			ctx := cuda.NewContext(cfg, setup, 1)
			if err := w.Run(ctx, workloads.Super); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Reset(cfg, setup, int64(i)+2)
				if err := w.Run(ctx, workloads.Super); err != nil {
					b.Fatal(err)
				}
			}
			u := ctx.Counters().UVM
			b.ReportMetric((u.MigratedBytes+u.PrefetchBytes)/float64(cfg.UVM.ChunkBytes), "chunks/op")
		})
	}
}

// BenchmarkBusStream measures the pcie layer's reservation calendar on
// one warm bus: each op is one busChunks-chunk PrefetchRun, then
// busChunks fault migrations through a MigrateLane and as many
// writebacks through a WritebackLane, each migration a compute gap after
// the previous one so both links' busy meters close one span per chunk,
// then Reset. A timed op allocates nothing. reservations/op is its
// deterministic work count. It
// is the pcie row of the benchmark ledger (BENCH.json, scripts/ledger).
func BenchmarkBusStream(b *testing.B) {
	const busChunks = 16384
	cfg := cuda.DefaultSystemConfig()
	chunk := cfg.UVM.ChunkBytes
	bus := pcie.New(cfg.PCIe)
	ends := make([]float64, busChunks)
	op := func() {
		t := bus.PrefetchRun(0, chunk, ends)
		migrate, writeback := bus.MigrateLane(chunk, 1), bus.WritebackLane(chunk)
		for i := 0; i < busChunks; i++ {
			t = migrate.At(t)
			writeback.At(t)
			t += 1e5 // the kernel computes on the chunk before the next fault
		}
		bus.Reset()
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(3*busChunks, "reservations/op")
}

// BenchmarkEngineEvents measures event scheduling and dispatch on a
// reused engine, with allocation accounting: after warm-up the event
// heap's backing array is recycled by Reset, so steady state should not
// allocate. It is the sim row of the benchmark ledger (BENCH.json,
// scripts/ledger).
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			eng.After(float64(j%7), fn)
		}
		eng.Run()
		eng.Reset()
	}
}

// BenchmarkWorkloads measures one simulated run per workload at Super
// under the combination setup — the per-row cost behind Figure 8.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := cuda.NewContext(cuda.DefaultSystemConfig(), cuda.UVMPrefetchAsync, int64(i))
				if err := w.Run(ctx, workloads.Super); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeWarmHit measures the serve fast path end to end: a
// store-backed server handles a POST /v1/experiments whose cells are all
// warm in the persistent store, so the request costs spec validation,
// file reads and JSON rendering — no simulation. Every b.N iteration
// boots a fresh server (fresh in-memory cache, fresh registry) on the
// same opened store, modelling the restarted-process warm path; the
// store is opened once, untimed, so its writability probe (a file
// create and remove) stays out of the row. It is a row of the benchmark
// ledger (BENCH.json, scripts/ledger).
func BenchmarkServeWarmHit(b *testing.B) {
	dirPath := b.TempDir()
	const spec = `{"figure":"fig6","iters":3}`
	post := func(s *serve.Server) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(spec))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("POST status %d: %s", w.Code, w.Body.String())
		}
		return w
	}
	dir, err := store.Open(dirPath)
	if err != nil {
		b.Fatal(err)
	}
	quiet := log.New(io.Discard, "", 0)
	cold := serve.New(serve.Config{Store: dir, StoreDir: dirPath, Log: quiet})
	want := post(cold).Body.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := serve.New(serve.Config{Store: dir, StoreDir: dirPath, Log: quiet})
		if got := post(s).Body.String(); got != want {
			b.Fatal("warm response diverges from cold response")
		}
		if s.Registry().Counter("uvmbench_store_hits_total", "").Value() == 0 {
			b.Fatal("request simulated instead of hitting the store")
		}
	}
}
