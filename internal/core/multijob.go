package core

import (
	"fmt"
	"strings"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// MultiJobResult is the §6 / Figure 14 analysis: batch processing of
// independent jobs with and without the proposed inter-job data-transfer
// model, in which job i+1's allocation (cudaMallocManaged) and job i's
// deallocation (cudaFree) run on the otherwise idle CPU while the GPU
// executes kernels.
type MultiJobResult struct {
	Workload string     `json:"workload"`
	Setup    cuda.Setup `json:"setup"`
	Jobs     int        `json:"jobs"`

	// Per-job stage times (mean of the measured runs).
	Alloc    float64 `json:"alloc_ns"`
	Transfer float64 `json:"transfer_ns"`
	Kernel   float64 `json:"kernel_ns"`

	// SerialTotal chains jobs end to end (today's model, Figure 14 top).
	SerialTotal float64 `json:"serial_total_ns"`
	// PipelinedTotal overlaps CPU allocation work with GPU execution of
	// the neighboring jobs (Figure 14 bottom).
	PipelinedTotal float64 `json:"pipelined_total_ns"`
	// Improvement is 1 - pipelined/serial.
	Improvement float64 `json:"improvement"`

	// Shares of the serial per-job time, the quantities §6.1 reports
	// (allocation 37.66%, kernel 37.79% under uvm_prefetch_async).
	AllocShare  float64 `json:"alloc_share"`
	KernelShare float64 `json:"kernel_share"`
	// Occupancy is the measured time-average SM occupancy.
	Occupancy float64 `json:"occupancy"`
}

// Doc packages the Figure 14 pipeline-model estimate.
func (m *MultiJobResult) Doc() FigureDoc { return FigureDoc{Figure: "fig14", Data: m} }

// Text prints the Figure 14 / §6 multi-job pipeline estimate.
func (m *MultiJobResult) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14 / §6: inter-job pipeline model (%s, %s, %d jobs)\n",
		m.Workload, m.Setup, m.Jobs)
	fmt.Fprintf(&b, "per-job stages (ms): alloc %s  transfer %s  kernel %s\n",
		ms(m.Alloc), ms(m.Transfer), ms(m.Kernel))
	fmt.Fprintf(&b, "allocation share %.2f%%  kernel share %.2f%%  occupancy %.2f%%\n",
		100*m.AllocShare, 100*m.KernelShare, 100*m.Occupancy)
	fmt.Fprintf(&b, "serial batch    %s ms\n", ms(m.SerialTotal))
	fmt.Fprintf(&b, "pipelined batch %s ms\n", ms(m.PipelinedTotal))
	fmt.Fprintf(&b, "improvement     %.2f%%\n", 100*m.Improvement)
	return b.String()
}

// MultiJob measures workload w once under setup and projects a batch of
// the given number of identical jobs through both schedules.
func (r *Runner) MultiJob(name string, setup cuda.Setup, size workloads.Size, jobs int) (*MultiJobResult, error) {
	if jobs < 1 {
		return nil, fmt.Errorf("core: job count must be positive, got %d", jobs)
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	res, err := r.Measure(w, setup, size)
	if err != nil {
		return nil, err
	}
	mb := res.MeanBreakdown()

	out := &MultiJobResult{
		Workload: name,
		Setup:    setup,
		Jobs:     jobs,
		Alloc:    mb.Alloc,
		Transfer: mb.Memcpy,
		Kernel:   mb.Kernel,
	}
	perJob := mb.Alloc + mb.Memcpy + mb.Kernel
	out.AllocShare = mb.Alloc / perJob
	out.KernelShare = mb.Kernel / perJob
	out.Occupancy = res.Counters.Occupancy()

	// Serial (current) model: every job runs its full pipeline alone.
	out.SerialTotal = float64(jobs) * perJob

	// Pipelined model: the CPU-side allocation/free of neighbouring jobs
	// hides behind the GPU phase (transfer+kernel). The first job's
	// allocation and the last job's free remain exposed; each steady-
	// state job costs max(GPU phase, CPU phase).
	gpuPhase := mb.Memcpy + mb.Kernel
	cpuPhase := mb.Alloc
	steady := gpuPhase
	if cpuPhase > steady {
		steady = cpuPhase
	}
	out.PipelinedTotal = mb.Alloc + float64(jobs)*steady
	out.Improvement = 1 - out.PipelinedTotal/out.SerialTotal
	return out, nil
}
