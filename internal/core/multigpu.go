package core

import (
	"fmt"
	"strings"

	"uvmasim/internal/cuda"
	"uvmasim/internal/sched"
	"uvmasim/internal/sim"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// MultiGPUStudy measures the Figure 14 pipeline headroom under real
// contention: the analytic §6 projection assumes one job owns one GPU
// and an uncontended link, while a batch spread over N GPUs shares the
// transfer fabric. The study replays the measured single-GPU stage
// durations through the concurrent-job scheduler (internal/sched) on
// each (topology, GPU count) grid point, running both the serial and
// the pipelined schedule, and reports how much of the projected
// improvement survives.
type MultiGPUStudy struct {
	Workload string         `json:"workload"`
	Setup    cuda.Setup     `json:"setup"`
	Size     workloads.Size `json:"size"`
	Jobs     int            `json:"jobs"`
	Policy   string         `json:"policy"`

	// Analytic is the 1-GPU no-contention §6 projection the grid is
	// judged against (the frozen Figure 14 oracle).
	Analytic *MultiJobResult `json:"analytic"`

	Points []MultiGPUPoint `json:"points"`
}

// MultiGPUSchedule is one schedule's realized aggregates at a grid
// point.
type MultiGPUSchedule struct {
	Makespan             float64 `json:"makespan_ns"`
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// Fairness is Jain's index over per-job finish times (identical
	// jobs, so equal to the index over slowdowns).
	Fairness float64 `json:"fairness"`
	// TransferStretch is the mean realized/solo transfer-time ratio:
	// 1.0 means the fabric never contended.
	TransferStretch float64 `json:"transfer_stretch"`
}

// MultiGPUPoint is one (topology, GPU count) grid point.
type MultiGPUPoint struct {
	Topology string `json:"topology"`
	GPUs     int    `json:"gpus"`

	Serial    MultiGPUSchedule `json:"serial"`
	Pipelined MultiGPUSchedule `json:"pipelined"`
	// Improvement is 1 - pipelined/serial makespan: the measured
	// counterpart of MultiJobResult.Improvement at this grid point.
	Improvement float64 `json:"improvement"`
}

// MultiGPU runs the grid study: workload `name` measured once under
// setup/size, then a batch of `jobs` identical jobs scheduled on every
// (topology, gpus) combination under `policy`, serial and pipelined.
// Only the workload measurement is a cell; each grid point replays the
// measured stage times as a handful of DES events per job and GPU, so
// the grid runs serially and is never cached.
func (r *Runner) MultiGPU(name string, setup cuda.Setup, size workloads.Size, jobs int, gpuCounts []int, topologies []topo.Kind, policy sched.Policy) (*MultiGPUStudy, error) {
	if jobs < 1 {
		return nil, fmt.Errorf("core: job count must be positive, got %d", jobs)
	}
	if len(gpuCounts) == 0 || len(topologies) == 0 {
		return nil, fmt.Errorf("core: multigpu grid needs at least one GPU count and one topology")
	}
	for _, g := range gpuCounts {
		if g < 1 {
			return nil, fmt.Errorf("core: GPU count must be positive, got %d", g)
		}
	}
	analytic, err := r.MultiJob(name, setup, size, jobs)
	if err != nil {
		return nil, err
	}
	study := &MultiGPUStudy{
		Workload: name,
		Setup:    setup,
		Size:     size,
		Jobs:     jobs,
		Policy:   policy.String(),
		Analytic: analytic,
		Points:   make([]MultiGPUPoint, 0, len(topologies)*len(gpuCounts)),
	}
	// The analytic row holds the measured cell's mean stage times.
	stages := cuda.Breakdown{Alloc: analytic.Alloc, Memcpy: analytic.Transfer, Kernel: analytic.Kernel}
	for _, k := range topologies {
		for _, g := range gpuCounts {
			serial, err := runMultiGPUSchedule(r.Config, stages, size, jobs, k, g, policy, false)
			if err != nil {
				return nil, err
			}
			pipelined, err := runMultiGPUSchedule(r.Config, stages, size, jobs, k, g, policy, true)
			if err != nil {
				return nil, err
			}
			p := MultiGPUPoint{Topology: string(k), GPUs: g,
				Serial: scheduleOf(serial), Pipelined: scheduleOf(pipelined)}
			if p.Serial.Makespan > 0 {
				p.Improvement = 1 - p.Pipelined.Makespan/p.Serial.Makespan
			}
			study.Points = append(study.Points, p)
		}
	}
	return study, nil
}

// scheduleOf reads one schedule's aggregates from its realized Stats
// and computes the study's fairness from the per-job finish times.
func scheduleOf(st *sched.Stats) MultiGPUSchedule {
	out := MultiGPUSchedule{
		Makespan:             st.Makespan,
		ThroughputJobsPerSec: st.ThroughputJobsPerSec,
		TransferStretch:      st.TransferStretch,
	}
	var sum, sq float64
	for i := range st.Jobs {
		f := st.Jobs[i].Finish
		sum += f
		sq += f * f
	}
	if sq > 0 {
		out.Fairness = sum * sum / (float64(len(st.Jobs)) * sq)
	}
	return out
}

// multiGPUJobs builds the batch the scheduler runs: `jobs` identical
// jobs arriving at time zero with the measured mean stage durations.
// The flow volume is chosen so a solo transfer reproduces the measured
// duration exactly (rate = min(footprint/t, device link), bytes = rate*t);
// only fabric contention can stretch it.
func multiGPUJobs(mb cuda.Breakdown, size workloads.Size, link float64, jobs int) []sched.Job {
	var bytes float64
	if mb.Memcpy > 0 {
		rate := float64(size.Footprint()) / mb.Memcpy
		if rate > link {
			rate = link
		}
		bytes = rate * mb.Memcpy
	}
	out := make([]sched.Job, jobs)
	for i := range out {
		out[i] = sched.Job{
			ID:         i,
			AllocNs:    mb.Alloc,
			TransferNs: mb.Memcpy,
			KernelNs:   mb.Kernel,
			Bytes:      bytes,
		}
	}
	return out
}

// runMultiGPUSchedule builds the topology and runs one schedule on a
// fresh engine. Shared by the grid study and the trace export.
func runMultiGPUSchedule(cfg cuda.SystemConfig, mb cuda.Breakdown, size workloads.Size, jobs int, kind topo.Kind, gpus int, policy sched.Policy, pipelined bool) (*sched.Stats, error) {
	eng := sim.New()
	tp, err := topo.New(eng, cfg, kind, gpus)
	if err != nil {
		return nil, err
	}
	batch := multiGPUJobs(mb, size, cfg.PCIe.BytesPerNs(), jobs)
	return sched.Run(eng, tp, batch, sched.Options{Policy: policy, Pipelined: pipelined})
}

// MultiGPUTrace re-runs one grid point's schedule and returns its
// realized Stats, for Chrome-trace export (sched.Stats.WriteChromeTrace).
// The schedule is a cheap deterministic replay of the measured workload
// cell, so tracing never perturbs or bypasses the cell cache.
func (r *Runner) MultiGPUTrace(name string, setup cuda.Setup, size workloads.Size, jobs int, kind topo.Kind, gpus int, policy sched.Policy, pipelined bool) (*sched.Stats, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	res, err := r.Measure(w, setup, size)
	if err != nil {
		return nil, err
	}
	return runMultiGPUSchedule(r.Config, res.MeanBreakdown(), size, jobs, kind, gpus, policy, pipelined)
}

// Doc packages the multi-GPU contention grid next to its analytic
// reference.
func (s *MultiGPUStudy) Doc() FigureDoc { return FigureDoc{Figure: "multigpu", Data: s} }

// Text prints the grid next to the analytic projection.
func (s *MultiGPUStudy) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-GPU batch schedule (%s, %s, %s, %d jobs, %s placement)\n",
		s.Workload, s.Setup, s.Size, s.Jobs, s.Policy)
	fmt.Fprintf(&b, "analytic 1-GPU projection: serial %s ms, pipelined %s ms, improvement %5.1f%%\n",
		ms(s.Analytic.SerialTotal), ms(s.Analytic.PipelinedTotal), 100*s.Analytic.Improvement)
	fmt.Fprintf(&b, "%-12s %5s %12s %12s %8s %9s %9s\n",
		"topology", "gpus", "serial ms", "pipeline ms", "gain", "stretch", "fairness")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-12s %5d %12s %12s %7.1f%% %9.2f %9.3f\n",
			p.Topology, p.GPUs,
			ms(p.Serial.Makespan), ms(p.Pipelined.Makespan),
			100*p.Improvement, p.Pipelined.TransferStretch, p.Pipelined.Fairness)
	}
	return b.String()
}
