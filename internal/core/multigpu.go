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
	Workload string
	Setup    cuda.Setup
	Size     workloads.Size
	Jobs     int
	Policy   string

	// Analytic is the 1-GPU no-contention §6 projection the grid is
	// judged against (the frozen Figure 14 oracle).
	Analytic *MultiJobResult

	Points []MultiGPUPoint
}

// MultiGPUSchedule is one schedule's realized aggregates at a grid
// point, decoded from the cell's per-job and per-GPU breakdowns.
type MultiGPUSchedule struct {
	Makespan             float64
	ThroughputJobsPerSec float64
	// Fairness is Jain's index over per-job finish times (identical
	// jobs, so equal to the index over slowdowns).
	Fairness float64
	// TransferStretch is the mean realized/solo transfer-time ratio:
	// 1.0 means the fabric never contended.
	TransferStretch float64
}

// MultiGPUPoint is one (topology, GPU count) grid point.
type MultiGPUPoint struct {
	Topology string
	GPUs     int

	Serial    MultiGPUSchedule
	Pipelined MultiGPUSchedule
	// Improvement is 1 - pipelined/serial makespan: the measured
	// counterpart of MultiJobResult.Improvement at this grid point.
	Improvement float64
}

// MultiGPU runs the grid study: workload `name` measured once under
// setup/size, then a batch of `jobs` identical jobs scheduled on every
// (topology, gpus) combination under `policy`, serial and pipelined.
// Each (grid point, schedule) pair is one cacheable cell.
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
	type cellRef struct {
		point     int
		kind      topo.Kind
		gpus      int
		pipelined bool
	}
	var cells []cellRef
	for _, k := range topologies {
		for _, g := range gpuCounts {
			p := len(study.Points)
			study.Points = append(study.Points, MultiGPUPoint{Topology: string(k), GPUs: g})
			cells = append(cells,
				cellRef{point: p, kind: k, gpus: g, pipelined: false},
				cellRef{point: p, kind: k, gpus: g, pipelined: true})
		}
	}
	kindOf := func(c cellRef) string {
		schedName := "serial"
		if c.pipelined {
			schedName = "pipelined"
		}
		// %s round-trips every field exactly, so equal kinds mean equal
		// cells across runs and machines (the profile enters the key via
		// its fingerprint).
		return fmt.Sprintf("multigpu:%s:%s:%d:%s:%d:%s", name, c.kind, c.gpus, policy, jobs, schedName)
	}
	// Every cell measures the same workload cell, then replays the
	// schedule as a handful of DES events per job and GPU.
	order := r.lptOrder(len(cells), func(i int) float64 {
		return float64(jobs * cells[i].gpus)
	})
	err = r.forEachOrdered(len(cells), order, func(i int) error {
		c := cells[i]
		res, err := r.cached(kindOf(c), setup, size, func() (Result, error) {
			return r.multiGPUCell(name, setup, size, jobs, c.kind, c.gpus, policy, c.pipelined)
		})
		if err != nil {
			return err
		}
		agg := decodeMultiGPUCell(res, jobs, c.gpus, analytic.Transfer)
		if c.pipelined {
			study.Points[c.point].Pipelined = agg
		} else {
			study.Points[c.point].Serial = agg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range study.Points {
		p := &study.Points[i]
		if p.Serial.Makespan > 0 {
			p.Improvement = 1 - p.Pipelined.Makespan/p.Serial.Makespan
		}
	}
	return study, nil
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

// multiGPUCell simulates one (topology, gpus, schedule) grid point. The
// Result encodes the realized schedule as jobs+gpus breakdowns: entries
// 0..jobs-1 are per-job spans (Alloc/Memcpy/Kernel = realized stage
// durations, Overhead = queueing wait, Total = finish time) and entries
// jobs..jobs+gpus-1 are per-GPU busy times (Total = the device's last
// finish). Everything the study and its renderers report is derived
// from these, so a cell stays a pure function of its cache key.
func (r *Runner) multiGPUCell(name string, setup cuda.Setup, size workloads.Size, jobs int, kind topo.Kind, gpus int, policy sched.Policy, pipelined bool) (Result, error) {
	// The stage durations come from the ordinary workload measurement
	// cell.
	w, err := workloads.ByName(name)
	if err != nil {
		return Result{}, err
	}
	res, err := r.Measure(w, setup, size)
	if err != nil {
		return Result{}, err
	}
	st, err := runMultiGPUSchedule(r.Config, res.MeanBreakdown(), size, jobs, kind, gpus, policy, pipelined)
	if err != nil {
		return Result{}, err
	}
	bds := make([]cuda.Breakdown, 0, jobs+gpus)
	for i := range st.Jobs {
		js := &st.Jobs[i]
		bds = append(bds, cuda.Breakdown{
			Alloc:    js.AllocEnd - js.AllocStart,
			Memcpy:   js.TransferEnd - js.TransferStart,
			Kernel:   js.KernelEnd - js.KernelStart,
			Overhead: js.Wait,
			Total:    js.Finish,
		})
	}
	for g := range st.GPUs {
		gs := &st.GPUs[g]
		bds = append(bds, cuda.Breakdown{
			Alloc:  gs.AllocBusy,
			Memcpy: gs.TransferBusy,
			Kernel: gs.KernelBusy,
			Total:  gs.LastFinish,
		})
	}
	return Result{
		Workload:   "multigpu",
		Setup:      setup,
		Size:       size,
		Breakdowns: bds,
	}, nil
}

// runMultiGPUSchedule builds the topology and runs one schedule on a
// fresh engine. Shared by the cell compute and the trace export.
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
// The schedule is a cheap deterministic replay of the cell, so tracing
// never perturbs or bypasses the cell cache.
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

// decodeMultiGPUCell reconstructs one schedule's aggregates from the
// cell encoding. soloTransfer is the uncontended transfer duration (the
// analytic row's), the stretch baseline. A cell with too few
// breakdowns decodes to zeros instead of indexing past its end: a
// truncated -cache-dir document still passes store.CellDoc.Valid,
// which asks only for a non-empty payload, and reaches this decoder.
func decodeMultiGPUCell(res Result, jobs, gpus int, soloTransfer float64) MultiGPUSchedule {
	var out MultiGPUSchedule
	if len(res.Breakdowns) < jobs+gpus {
		return out
	}
	var finishSum, finishSq, stretchSum float64
	for _, b := range res.Breakdowns[:jobs] {
		if b.Total > out.Makespan {
			out.Makespan = b.Total
		}
		finishSum += b.Total
		finishSq += b.Total * b.Total
		if soloTransfer > 0 {
			stretchSum += b.Memcpy / soloTransfer
		}
	}
	if out.Makespan > 0 {
		out.ThroughputJobsPerSec = float64(jobs) / out.Makespan * 1e9
	}
	if finishSq > 0 {
		out.Fairness = finishSum * finishSum / (float64(jobs) * finishSq)
	}
	if soloTransfer > 0 {
		out.TransferStretch = stretchSum / float64(jobs)
	} else {
		out.TransferStretch = 1
	}
	return out
}

// Render prints the grid next to the analytic projection.
func (s *MultiGPUStudy) Render() string {
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
