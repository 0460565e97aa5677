package uvmasim_test

// Ablation benchmarks: switch off one modelled mechanism at a time and
// report how the headline result (the combination setup's geo-mean
// improvement over standard on the microbenchmarks, Figure 7) responds.
// These quantify which parts of the system model carry the paper's
// findings.

import (
	"testing"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// fig7Study runs the Figure 7 comparison — every setup against standard
// on the microbenchmarks at Large — under the given system configuration.
func fig7Study(b *testing.B, cfg cuda.SystemConfig) *core.BreakdownStudy {
	b.Helper()
	r := core.NewRunner()
	r.Config = cfg
	r.Iterations = 2
	study, err := r.BreakdownComparison(workloads.Micro(), workloads.Large)
	if err != nil {
		b.Fatal(err)
	}
	return study
}

// comboImprovement measures the uvm_prefetch_async geo-mean improvement
// on the microbenchmarks at Large under the given system configuration.
func comboImprovement(b *testing.B, cfg cuda.SystemConfig) float64 {
	b.Helper()
	return fig7Study(b, cfg).GeoMeanImprovement(cuda.UVMPrefetchAsync) * 100
}

func BenchmarkAblationBaseline(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = comboImprovement(b, cuda.DefaultSystemConfig())
	}
	b.ReportMetric(imp, "%combo")
}

// BenchmarkAblationNoFaultLatency removes the UVM fault-batch service
// latency. Plain uvm is the setup that faults on the Figure 7 path (the
// prefetched setups stream their inputs ahead of the kernel), so the
// benchmark reports plain uvm's geo-mean improvement, with the
// combination's as a second metric, and fails if removing the latency
// makes plain uvm slower than with it.
func BenchmarkAblationNoFaultLatency(b *testing.B) {
	cfg := cuda.DefaultSystemConfig()
	withLatency := fig7Study(b, cfg).GeoMeanImprovement(cuda.UVM) * 100
	cfg.UVM.FaultBatchLatencyNs = 0
	b.ResetTimer()
	var study *core.BreakdownStudy
	for i := 0; i < b.N; i++ {
		study = fig7Study(b, cfg)
	}
	uvm := study.GeoMeanImprovement(cuda.UVM) * 100
	if uvm < withLatency {
		b.Fatalf("zero fault latency slowed plain uvm: %.2f%% improvement, %.2f%% with the latency", uvm, withLatency)
	}
	b.ReportMetric(uvm, "%uvm")
	b.ReportMetric(study.GeoMeanImprovement(cuda.UVMPrefetchAsync)*100, "%combo")
}

// BenchmarkAblationSlowPrefetch drops prefetch streaming to fault
// efficiency: the uvm_prefetch advantage over plain uvm should shrink to
// the fault-latency savings alone.
func BenchmarkAblationSlowPrefetch(b *testing.B) {
	cfg := cuda.DefaultSystemConfig()
	cfg.PCIe.PrefetchEfficiency = cfg.PCIe.FaultEfficiency
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = comboImprovement(b, cfg)
	}
	b.ReportMetric(imp, "%combo")
}

// BenchmarkAblationNarrowPCIe halves the interconnect: transfer-bound
// setups separate further from standard's blocking copies.
func BenchmarkAblationNarrowPCIe(b *testing.B) {
	cfg := cuda.DefaultSystemConfig()
	cfg.PCIe.BandwidthGBs /= 2
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = comboImprovement(b, cfg)
	}
	b.ReportMetric(imp, "%combo")
}

// BenchmarkAblationFreeAllocation zeroes the allocation cost model — the
// §6 motivation disappears and totals compress.
func BenchmarkAblationFreeAllocation(b *testing.B) {
	cfg := cuda.DefaultSystemConfig()
	cfg.Alloc.MallocBase = 0
	cfg.Alloc.MallocPerGB = 0
	cfg.Alloc.ManagedBase = 0
	cfg.Alloc.ManagedPerGB = 0
	cfg.Alloc.FreeBase = 0
	cfg.Alloc.FreePerGB = 0
	cfg.Alloc.ManagedFreePerGB = 0
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = comboImprovement(b, cfg)
	}
	b.ReportMetric(imp, "%combo")
}

// BenchmarkAblationFastHostChips removes the cross-chip host penalty:
// the Figure 6 Mega instability should collapse.
func BenchmarkAblationFastHostChips(b *testing.B) {
	cfg := cuda.DefaultSystemConfig()
	cfg.Host.CrossPenalty = 0
	cfg.Host.CrossJitter = 0
	r := core.NewRunner()
	r.Config = cfg
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
