package core

import (
	"strings"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/stats"
	"uvmasim/internal/workloads"
)

// testRunner keeps iteration counts small; the statistics do not need 30
// repetitions to expose the shapes under test.
func testRunner(iters int) *Runner {
	r := NewRunner()
	r.Iterations = iters
	return r
}

func mustWorkloads(t *testing.T, names ...string) []workloads.Workload {
	t.Helper()
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w
	}
	return out
}

// Takeaway 1 (Figures 4-6): Large and Super are stable; Mega's memcpy
// component is the unstable one.
func TestSizeStability(t *testing.T) {
	r := testRunner(10)
	ws := mustWorkloads(t, "vector_seq")
	study, err := r.Distributions(ws, []workloads.Size{workloads.Large, workloads.Super, workloads.Mega})
	if err != nil {
		t.Fatal(err)
	}
	cvLarge := study.CV("vector_seq", workloads.Large)
	cvMega := study.CV("vector_seq", workloads.Mega)
	if cvMega <= cvLarge {
		t.Errorf("Mega cv (%v) should exceed Large cv (%v) — Takeaway 1", cvMega, cvLarge)
	}
	if study.GeoMeanCV(workloads.Mega) <= 0 {
		t.Errorf("geo-mean cv should be positive")
	}

	fig6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig6.Runs) != 10 {
		t.Fatalf("Fig6 runs = %d", len(fig6.Runs))
	}
	if fig6.MemcpyCV <= fig6.KernelCV {
		t.Errorf("memcpy cv (%v) should exceed kernel cv (%v) at Mega — Figure 6",
			fig6.MemcpyCV, fig6.KernelCV)
	}
	if !strings.Contains(fig6.Doc().Text(), "memcpy cv") {
		t.Error("Fig6 render incomplete")
	}
}

// §4.1.1 (Figure 7): on the microbenchmarks, async ~ standard overall;
// plain uvm loses; uvm_prefetch and the combination win.
func TestMicroSetupOrdering(t *testing.T) {
	r := testRunner(3)
	ws := mustWorkloads(t, "vector_seq", "vector_rand", "saxpy", "gemv", "gemm", "2DCONV", "3DCONV")
	study, err := r.BreakdownComparison(ws, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	asyncImp := study.GeoMeanImprovement(cuda.Async)
	uvmImp := study.GeoMeanImprovement(cuda.UVM)
	pfImp := study.GeoMeanImprovement(cuda.UVMPrefetch)
	comboImp := study.GeoMeanImprovement(cuda.UVMPrefetchAsync)
	t.Logf("micro Large improvements: async=%+.2f%% uvm=%+.2f%% uvm_prefetch=%+.2f%% combo=%+.2f%%",
		100*asyncImp, 100*uvmImp, 100*pfImp, 100*comboImp)

	if asyncImp < -0.10 || asyncImp > 0.25 {
		t.Errorf("async overall effect should be modest (paper: 0.27%%), got %+.2f%%", 100*asyncImp)
	}
	if uvmImp >= pfImp {
		t.Errorf("uvm (%+.2f%%) should trail uvm_prefetch (%+.2f%%)", 100*uvmImp, 100*pfImp)
	}
	if pfImp <= 0 {
		t.Errorf("uvm_prefetch should improve over standard, got %+.2f%%", 100*pfImp)
	}
	if comboImp <= 0 {
		t.Errorf("uvm_prefetch_async should improve over standard, got %+.2f%%", 100*comboImp)
	}
	// Transfer-time savings from UVM (paper: ~31-45%).
	mem := func(b cuda.Breakdown) float64 { return b.Memcpy }
	if sav := study.ComponentSavings(cuda.UVMPrefetch, mem); sav < 0.15 {
		t.Errorf("uvm_prefetch memcpy savings = %+.2f%%, want >15%%", 100*sav)
	}

	// Per-workload kernel-time shapes of §4.1.1: async cuts the
	// streaming kernel but inflates the compute-intense ones.
	vec, err := study.Row("vector_seq")
	if err != nil {
		t.Fatal(err)
	}
	if vec.BySetup[1].Kernel >= vec.BySetup[0].Kernel {
		t.Errorf("vector_seq async kernel (%v) should beat standard (%v); paper: -41.78%%",
			vec.BySetup[1].Kernel, vec.BySetup[0].Kernel)
	}
	for _, name := range []string{"gemm", "2DCONV", "3DCONV"} {
		row, err := study.Row(name)
		if err != nil {
			t.Fatal(err)
		}
		if row.BySetup[1].Kernel <= row.BySetup[0].Kernel {
			t.Errorf("%s async kernel (%v) should exceed standard (%v)",
				name, row.BySetup[1].Kernel, row.BySetup[0].Kernel)
		}
	}
}

// §4.1.2 (Figure 8) per-workload exceptions the paper highlights.
func TestAppExceptions(t *testing.T) {
	r := testRunner(3)

	// lud: async beats uvm_prefetch; the combination keeps the async
	// speedup rather than losing it to UVM overhead.
	lud, err := r.BreakdownComparison(mustWorkloads(t, "lud"), workloads.Super)
	if err != nil {
		t.Fatal(err)
	}
	ludAsync := lud.GeoMeanImprovement(cuda.Async)
	ludPf := lud.GeoMeanImprovement(cuda.UVMPrefetch)
	t.Logf("lud: async=%+.2f%% uvm_prefetch=%+.2f%%", 100*ludAsync, 100*ludPf)
	if ludAsync <= ludPf {
		t.Errorf("lud should prefer async (%+.2f%%) over uvm_prefetch (%+.2f%%) — Takeaway 2",
			100*ludAsync, 100*ludPf)
	}

	// nw: prefetching hurts relative to plain uvm (two kernels on the
	// same data).
	nw, err := r.BreakdownComparison(mustWorkloads(t, "nw"), workloads.Super)
	if err != nil {
		t.Fatal(err)
	}
	nwUVM := nw.GeoMeanImprovement(cuda.UVM)
	nwPf := nw.GeoMeanImprovement(cuda.UVMPrefetch)
	t.Logf("nw: uvm=%+.2f%% uvm_prefetch=%+.2f%%", 100*nwUVM, 100*nwPf)
	if nwPf >= nwUVM+0.01 {
		t.Errorf("nw prefetch (%+.2f%%) should not beat plain uvm (%+.2f%%)", 100*nwPf, 100*nwUVM)
	}

	// yolov3: the combination must not beat uvm_prefetch (the gemm
	// kernel's async control overhead, §4.1.2), and kernel time is a
	// small share of the total.
	yolo, err := r.BreakdownComparison(mustWorkloads(t, "yolov3"), workloads.Super)
	if err != nil {
		t.Fatal(err)
	}
	yoloPf := yolo.GeoMeanImprovement(cuda.UVMPrefetch)
	yoloCombo := yolo.GeoMeanImprovement(cuda.UVMPrefetchAsync)
	t.Logf("yolov3: uvm_prefetch=%+.2f%% combo=%+.2f%%", 100*yoloPf, 100*yoloCombo)
	if yoloCombo > yoloPf {
		t.Errorf("yolov3 combination (%+.2f%%) should not beat uvm_prefetch (%+.2f%%)",
			100*yoloCombo, 100*yoloPf)
	}
	row, err := yolo.Row("yolov3")
	if err != nil {
		t.Fatal(err)
	}
	std := row.BySetup[0]
	kernelShare := std.Kernel / std.Total
	if kernelShare > 0.5 {
		t.Errorf("yolov3 should not be kernel-bound (share of total %.2f; paper: 5.81%%)", kernelShare)
	}
}

// Figures 9 & 10: async inflates control instructions on gemm and
// yolov3; async cuts lud's L1 miss rates; UVM leaves the mix alone.
func TestCounterStudies(t *testing.T) {
	r := testRunner(1)
	study, err := r.CounterComparison([]string{"gemm", "lud", "yolov3"}, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"gemm", "yolov3"} {
		std, _ := study.Row(wl, cuda.Standard)
		pfa, _ := study.Row(wl, cuda.UVMPrefetchAsync)
		uvm, _ := study.Row(wl, cuda.UVM)
		if pfa.CtrlInst <= std.CtrlInst*1.1 {
			t.Errorf("%s: async control instructions should rise >10%% (got %.2e vs %.2e)",
				wl, pfa.CtrlInst, std.CtrlInst)
		}
		if uvm.CtrlInst != std.CtrlInst {
			t.Errorf("%s: uvm should not change the instruction mix", wl)
		}
	}
	ludStd, _ := study.Row("lud", cuda.Standard)
	ludAsync, _ := study.Row("lud", cuda.Async)
	if ludAsync.LoadMissRate >= ludStd.LoadMissRate {
		t.Errorf("lud async load miss rate (%v) should drop below standard (%v)",
			ludAsync.LoadMissRate, ludStd.LoadMissRate)
	}
	if ludAsync.StoreMissRate >= ludStd.StoreMissRate*0.7 {
		t.Errorf("lud async store miss rate should drop strongly (%v vs %v)",
			ludAsync.StoreMissRate, ludStd.StoreMissRate)
	}
	if !strings.Contains(study.Doc("fig9").Text(), "gemm") || !strings.Contains(study.Doc("fig10").Text(), "lud") {
		t.Error("counter renders incomplete")
	}
}

// Figure 11: block count barely matters.
func TestSweepBlocks(t *testing.T) {
	r := testRunner(2)
	sw, err := r.SweepBlocks(workloads.Large, []int{4096, 1024, 256, 64, 16})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range sw.Points {
		for si, v := range p.NormalizedTotal {
			if v <= 0 {
				t.Fatalf("degenerate sweep value at point %d setup %d", pi, si)
			}
		}
		// Standard setup stays within ~15% across block counts.
		if v := p.NormalizedTotal[0]; v < 0.85 || v > 1.3 {
			t.Errorf("standard at %v blocks deviates: %.3f (Takeaway 4: stable)",
				p.Param, v)
		}
	}
}

// Figure 12: threads per block matter a lot; async recovers the loss.
func TestSweepThreads(t *testing.T) {
	r := testRunner(2)
	sw, err := r.SweepThreads(workloads.Large, []int{1024, 512, 256, 128, 64, 32})
	if err != nil {
		t.Fatal(err)
	}
	kernelAt := func(threads float64, si int) float64 {
		p, err := sw.Point(threads)
		if err != nil {
			t.Fatal(err)
		}
		return p.BySetup[si].Kernel
	}
	k32, k128 := kernelAt(32, 0), kernelAt(128, 0)
	if k32 < 2*k128 {
		t.Errorf("standard kernel at 32 threads (%v) should be >=2x 128 threads (%v) — paper: 3.95x",
			k32, k128)
	}
	// Async advantage over standard grows as threads shrink.
	advAt := func(threads float64) float64 {
		return kernelAt(threads, 0) / kernelAt(threads, 1)
	}
	if advAt(32) <= advAt(1024) {
		t.Errorf("async kernel advantage at 32 threads (%.2fx) should exceed 1024 threads (%.2fx)",
			advAt(32), advAt(1024))
	}
}

// Figure 13: shared-memory partition sensitivity (Takeaway 5).
func TestSweepShared(t *testing.T) {
	r := testRunner(2)
	sw, err := r.SweepShared(workloads.Large, []float64{2, 4, 8, 16, 32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(sharedKB float64, si int) float64 {
		p, err := sw.Point(sharedKB)
		if err != nil {
			t.Fatal(err)
		}
		return p.BySetup[si].Kernel
	}
	const asyncIdx, comboIdx = 1, 4
	// Tiny shared partition starves the async pipeline.
	if kernel(2, asyncIdx) <= kernel(32, asyncIdx) {
		t.Errorf("async kernel at 2KB shared (%v) should exceed 32KB (%v)",
			kernel(2, asyncIdx), kernel(32, asyncIdx))
	}
	// Huge shared partition (tiny L1) hurts the UVM+prefetch+async combo.
	if kernel(128, comboIdx) <= kernel(32, comboIdx) {
		t.Errorf("combo kernel at 128KB shared (%v) should exceed 32KB (%v)",
			kernel(128, comboIdx), kernel(32, comboIdx))
	}
}

// §6 / Figure 14: the inter-job pipeline hides allocation time.
func TestMultiJob(t *testing.T) {
	r := testRunner(2)
	res, err := r.MultiJob("vector_seq", cuda.UVMPrefetchAsync, workloads.Super, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Improvement <= 0.05 {
		t.Errorf("pipelined batch should improve >5%% (paper estimates >30%%), got %.2f%%",
			100*res.Improvement)
	}
	if res.PipelinedTotal >= res.SerialTotal {
		t.Errorf("pipelined total must beat serial")
	}
	if res.AllocShare <= 0.05 {
		t.Errorf("allocation share should be significant under the combo setup, got %.3f", res.AllocShare)
	}
	if _, err := r.MultiJob("vector_seq", cuda.Standard, workloads.Super, 0); err == nil {
		t.Error("zero jobs should error")
	}
	if !strings.Contains(res.Doc().Text(), "improvement") {
		t.Error("multijob render incomplete")
	}
}

// pipelineStats holds the §6.1 quantities averaged over a set of
// workloads: the share of the region of interest spent on data transfer
// and on allocation.
type pipelineStats struct {
	TransferShare float64
	AllocShare    float64
}

// pipelineShares measures the given workloads under one setup at a size
// and averages the component shares of the region of interest.
func (r *Runner) pipelineShares(ws []workloads.Workload, setup cuda.Setup, size workloads.Size) (pipelineStats, error) {
	results := make([]Result, len(ws))
	err := r.forEach(len(ws), func(i int) error {
		res, err := r.Measure(ws[i], setup, size)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return pipelineStats{}, err
	}
	var tr, al []float64
	for _, res := range results {
		mb := res.MeanBreakdown()
		roi := mb.Alloc + mb.Memcpy + mb.Kernel
		if roi <= 0 {
			continue
		}
		tr = append(tr, mb.Memcpy/roi)
		al = append(al, mb.Alloc/roi)
	}
	return pipelineStats{TransferShare: stats.Mean(tr), AllocShare: stats.Mean(al)}, nil
}

// §6.1: UVM+prefetch+async must cut the transfer share of the region of
// interest and raise its allocation share versus standard.
func TestPipelineShares(t *testing.T) {
	r := testRunner(2)
	ws := mustWorkloads(t, "vector_seq", "saxpy", "kmeans")
	std, err := r.pipelineShares(ws, cuda.Standard, workloads.Super)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := r.pipelineShares(ws, cuda.UVMPrefetchAsync, workloads.Super)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("standard: transfer %.1f%% alloc %.1f%%; combo: transfer %.1f%% alloc %.1f%%",
		100*std.TransferShare, 100*std.AllocShare, 100*combo.TransferShare, 100*combo.AllocShare)
	if combo.TransferShare >= std.TransferShare {
		t.Errorf("combo transfer share (%v) should drop below standard (%v) — §6.1",
			combo.TransferShare, std.TransferShare)
	}
	if combo.AllocShare <= std.AllocShare {
		t.Errorf("combo allocation share (%v) should rise above standard (%v) — §6.1",
			combo.AllocShare, std.AllocShare)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if !strings.Contains(Table3Doc().Text(), "mega") {
		t.Error("Table 3 render incomplete")
	}
	r := testRunner(2)
	ws := mustWorkloads(t, "vector_seq", "saxpy")
	study, err := r.Distributions(ws, []workloads.Size{workloads.Small})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(study.Fig4Doc().Text(), "saxpy") || !strings.Contains(study.Fig5Doc().Text(), "geo-mean") {
		t.Error("distribution renders incomplete")
	}
	bd, err := r.BreakdownComparison(ws, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	out := bd.Doc("fig7").Text()
	if !strings.Contains(out, "geo-mean improvement") || !strings.Contains(out, "uvm_prefetch_async") {
		t.Error("breakdown render incomplete")
	}
	sw, err := r.SweepBlocks(workloads.Small, []int{64, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sw.Doc("fig11").Text(), "#blocks") {
		t.Error("sweep render incomplete")
	}
	if _, err := bd.Row("nonexistent"); err == nil {
		t.Error("Row should reject unknown workloads")
	}
}
