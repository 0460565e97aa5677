// Package sched is the concurrent-job scheduler over the shared
// discrete-event simulation: a queue of jobs with arrival times is
// placed onto a multi-GPU topology (internal/topo) by a pluggable
// policy and executed under one of two batch schedules — serial (each
// job's alloc → transfer → kernel pipeline runs back to back, today's
// CUDA reality) or pipelined (the §6 proposal: job i+1's host-side
// allocation/free work overlaps job i's GPU phase on the same device).
// Transfers are flows on the topology's shared fabric, so concurrent
// jobs contend for real bandwidth; everything else replays the
// measured single-GPU stage durations.
//
// The pipelined schedule reproduces the analytic §6 projection exactly
// in the GPU-bound regime it was derived for (first allocation exposed,
// each steady-state job costing the GPU phase): at one GPU with no
// transfer contention the simulated makespan equals
// alloc + jobs*(transfer+kernel) whenever transfer+kernel >= alloc.
// The differential-oracle test in core pins this, so the analytic
// estimate can never silently drift from the simulation.
package sched

import (
	"fmt"

	"uvmasim/internal/nearest"
	"uvmasim/internal/sim"
	"uvmasim/internal/topo"
)

// Job is one unit of work: the measured zero-contention durations of
// its three stages plus the transfer volume behind the transfer stage.
type Job struct {
	ID      int
	Arrival float64 // earliest start, ns
	// AllocNs is the host-side CPU work (cudaMallocManaged + cudaFree),
	// TransferNs the solo host->device transfer time, KernelNs the
	// device execution time — each as measured on an uncontended GPU.
	AllocNs    float64
	TransferNs float64
	KernelNs   float64
	// Bytes is the transfer volume; with TransferNs it sets the flow's
	// solo rate on the shared fabric.
	Bytes float64
}

// duration is the job's zero-contention end-to-end time.
func (j Job) duration() float64 { return j.AllocNs + j.TransferNs + j.KernelNs }

// Policy selects a placement heuristic.
type Policy int

const (
	// FirstFit places each job on the lowest-numbered GPU estimated
	// idle at its arrival, falling back to GPU 0 — the naive policy
	// that collapses a simultaneous batch onto one device.
	FirstFit Policy = iota
	// LeastLoaded places each job on the GPU with the least total
	// estimated work (ties to the lowest ordinal).
	LeastLoaded
	// BandwidthAware estimates each candidate GPU's finish time with a
	// fabric-contention term (solo transfer time stretched by the flows
	// already assigned to the shared stage) and takes the minimum.
	BandwidthAware
)

// PolicyNames lists the recognized policy names, in Policy order.
var PolicyNames = []string{"first-fit", "least-loaded", "bandwidth-aware"}

func (p Policy) String() string {
	if int(p) < len(PolicyNames) {
		return PolicyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name, failing with a nearest-name hint
// on a typo.
func ParsePolicy(s string) (Policy, error) {
	for i, name := range PolicyNames {
		if s == name {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q%s", s, nearest.Hint(s, PolicyNames, 2))
}

// Options configures one scheduler run.
type Options struct {
	Policy Policy
	// Pipelined enables the §6 inter-job alloc/free overlap: a job's
	// host-side work may run while its GPU predecessor executes.
	Pipelined bool
}

// JobStat records one job's realized timeline.
type JobStat struct {
	Job Job
	GPU int

	AllocStart, AllocEnd       float64
	TransferStart, TransferEnd float64
	KernelStart, KernelEnd     float64
	// Finish is the job's completion time (== KernelEnd).
	Finish float64
}

// Stats is the outcome of one scheduler run.
type Stats struct {
	Jobs []JobStat // in Job submission order
	GPUs int       // devices in the topology, idle ones included

	// Makespan is the last finish minus the first arrival.
	Makespan float64
	// ThroughputJobsPerSec is jobs completed per simulated second.
	ThroughputJobsPerSec float64
	// TransferStretch is the mean realized/solo transfer-time ratio
	// over jobs with a transfer stage: 1.0 means no fabric contention.
	TransferStretch float64
}

// Place assigns each job (in submission order) to a GPU under the
// given policy. It is a pure function of its inputs — placement happens
// before simulation, from deterministic zero-contention estimates — so
// a schedule is reproducible from (topology, jobs, options) alone.
func Place(t *topo.Topology, jobs []Job, policy Policy) []int {
	n := t.GPUs
	placement := make([]int, len(jobs))
	estFree := make([]float64, n) // estimated drain time per GPU
	load := make([]float64, n)    // total assigned work per GPU
	for i, j := range jobs {
		g := 0
		switch policy {
		case FirstFit:
			g = 0
			for c := 0; c < n; c++ {
				if estFree[c] <= j.Arrival {
					g = c
					break
				}
			}
		case LeastLoaded:
			for c := 1; c < n; c++ {
				if load[c] < load[g] {
					g = c
				}
			}
		case BandwidthAware:
			best := 0.0
			for c := 0; c < n; c++ {
				start := estFree[c]
				if j.Arrival > start {
					start = j.Arrival
				}
				// Each of the i jobs already placed maps a flow onto the
				// one shared stage all devices cross, stretching the
				// transfer estimate.
				fin := start + j.AllocNs + j.TransferNs*float64(1+i) + j.KernelNs
				if c == 0 || fin < best {
					best, g = fin, c
				}
			}
		}
		placement[i] = g
		start := estFree[g]
		if j.Arrival > start {
			start = j.Arrival
		}
		estFree[g] = start + j.duration()
		load[g] += j.duration()
	}
	return placement
}

// jobState tracks one job's progress through the event-driven run.
type jobState struct {
	job Job
	gpu int
	idx int // index within its GPU's queue

	allocDone bool
	gpuDone   bool
	gpuGoing  bool // transfer started (the pipelined alloc-release point)

	stat *JobStat
}

// Run executes the jobs on the topology under opt and returns the
// realized statistics. The engine must be fresh (time zero); Run drives
// it to completion. Determinism: all event times are pure functions of
// the inputs, and ties fire in scheduling order.
func Run(eng *sim.Engine, t *topo.Topology, jobs []Job, opt Options) (*Stats, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sched: no jobs")
	}
	for _, j := range jobs {
		if j.AllocNs < 0 || j.TransferNs < 0 || j.KernelNs < 0 || j.Arrival < 0 {
			return nil, fmt.Errorf("sched: job %d has negative stage times", j.ID)
		}
	}
	placement := Place(t, jobs, opt.Policy)

	st := &Stats{Jobs: make([]JobStat, len(jobs)), GPUs: t.GPUs}
	queues := make([][]*jobState, t.GPUs)
	for i, j := range jobs {
		g := placement[i]
		js := &jobState{job: j, gpu: g, idx: len(queues[g]), stat: &st.Jobs[i]}
		js.stat.Job = j
		js.stat.GPU = g
		queues[g] = append(queues[g], js)
	}

	// Per-GPU pipelines. Serial: job k's alloc starts at
	// max(arrival, finish of job k-1). Pipelined: job k's alloc starts
	// once job k-1's alloc finished AND its GPU phase started (the host
	// thread is free then); job k's GPU phase starts once its own alloc
	// finished and job k-1's GPU phase ended. At one GPU with no fabric
	// contention this reproduces the §6 analytic pipelined total exactly
	// in the GPU-bound regime (see the package comment).
	var startAlloc func(q []*jobState, k int)
	var maybeStartGPU func(q []*jobState, k int)

	startAlloc = func(q []*jobState, k int) {
		if k >= len(q) {
			return
		}
		js := q[k]
		now := eng.Now()
		start := js.job.Arrival
		if now > start {
			start = now
		}
		js.stat.AllocStart = start
		end := start + js.job.AllocNs
		eng.At(end, func() {
			js.allocDone = true
			js.stat.AllocEnd = eng.Now()
			// If the GPU phase starts here, maybeStartGPU releases the
			// host thread to the successor's alloc (pipelined only).
			maybeStartGPU(q, k)
		})
	}

	maybeStartGPU = func(q []*jobState, k int) {
		js := q[k]
		if !js.allocDone || js.gpuGoing {
			return
		}
		if k > 0 && !q[k-1].gpuDone {
			return
		}
		js.gpuGoing = true
		now := eng.Now()
		js.stat.TransferStart = now
		if opt.Pipelined && js.allocDone {
			// The host thread just handed off to the GPU: release it to
			// the successor's alloc (if that alloc was the blocker).
			startAlloc(q, k+1)
		}
		afterTransfer := func(end float64) {
			js.stat.TransferEnd = end
			js.stat.KernelStart = end
			kEnd := end + js.job.KernelNs
			eng.At(kEnd, func() {
				now := eng.Now()
				js.gpuDone = true
				js.stat.KernelEnd = now
				js.stat.Finish = now
				if k+1 < len(q) {
					if opt.Pipelined {
						maybeStartGPU(q, k+1)
					} else {
						startAlloc(q, k+1)
					}
				}
			})
		}
		if js.job.TransferNs <= 0 || js.job.Bytes <= 0 {
			afterTransfer(now)
			return
		}
		// The flow's solo rate reproduces the measured solo duration;
		// contention on the shared stage stretches it.
		rate := js.job.Bytes / js.job.TransferNs
		t.Transfer(js.job.Bytes, rate, afterTransfer)
	}

	for g := range queues {
		if len(queues[g]) == 0 {
			continue
		}
		q := queues[g]
		eng.At(q[0].job.Arrival, func() { startAlloc(q, 0) })
	}
	eng.Run()

	return st, finalize(st, jobs)
}

// finalize derives the aggregate statistics from the per-job spans.
func finalize(st *Stats, jobs []Job) error {
	firstArrival := jobs[0].Arrival
	last := 0.0
	for _, j := range jobs {
		if j.Arrival < firstArrival {
			firstArrival = j.Arrival
		}
	}
	var stretchSum float64
	stretchN := 0
	for i := range st.Jobs {
		js := &st.Jobs[i]
		if js.Finish <= 0 && js.Job.duration() > 0 {
			return fmt.Errorf("sched: job %d never finished", js.Job.ID)
		}
		if js.Finish > last {
			last = js.Finish
		}
		if js.Job.TransferNs > 0 {
			stretchSum += (js.TransferEnd - js.TransferStart) / js.Job.TransferNs
			stretchN++
		}
	}
	st.Makespan = last - firstArrival
	if st.Makespan > 0 {
		st.ThroughputJobsPerSec = float64(len(st.Jobs)) / st.Makespan * 1e9
	}
	if stretchN > 0 {
		st.TransferStretch = stretchSum / float64(stretchN)
	} else {
		st.TransferStretch = 1
	}
	return nil
}
