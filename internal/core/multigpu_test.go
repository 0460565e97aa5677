package core

import (
	"reflect"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/sched"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// relClose reports whether got is within rel of want, relatively.
func relClose(got, want, rel float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= rel*scale
}

// multiGPUGrid is one multigpu grid a contract is checked on.
type multiGPUGrid struct {
	name  string
	jobs  int
	gpus  []int
	kinds []topo.Kind
}

// defaultMultiGPUGrid is the CLI's default grid: 8 jobs on 1, 2 and 4
// GPUs over both topologies.
var defaultMultiGPUGrid = multiGPUGrid{"default grid", 8, []int{1, 2, 4}, []topo.Kind{topo.PCIeSwitch, topo.NVLink}}

// multiGPUPoint returns study's grid point at (kind, gpus).
func multiGPUPoint(t *testing.T, study *MultiGPUStudy, kind topo.Kind, gpus int) MultiGPUPoint {
	t.Helper()
	for _, p := range study.Points {
		if p.Topology == string(kind) && p.GPUs == gpus {
			return p
		}
	}
	t.Fatalf("no %s point at %d GPUs", kind, gpus)
	return MultiGPUPoint{}
}

// TestMultiGPUOracleMatchesAnalytic is the differential-oracle contract
// (the reason MultiJob stays in the tree): on one GPU with no fabric
// contention, the measured DES schedule must reproduce the frozen §6
// closed forms exactly — serial J*(a+t+k), pipelined a + J*max(t+k, a).
// Any drift between the scheduler and the analytic model is a bug in
// one of them.
func TestMultiGPUOracleMatchesAnalytic(t *testing.T) {
	for _, g := range []multiGPUGrid{
		{"5 jobs", 5, []int{1}, []topo.Kind{topo.PCIeSwitch}},
		defaultMultiGPUGrid,
	} {
		t.Run(g.name, func(t *testing.T) {
			r := testRunner(3)
			study, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, workloads.Super,
				g.jobs, g.gpus, g.kinds, sched.LeastLoaded)
			if err != nil {
				t.Fatal(err)
			}
			an := study.Analytic
			// The Figure 14 point lives in the GPU-bound regime: the GPU phase
			// must dominate the allocation, or the analytic pipelined total
			// degenerates to the CPU-bound branch and the comparison means
			// something else.
			if an.Transfer+an.Kernel < an.Alloc {
				t.Fatalf("GPU phase %v below alloc %v: not the GPU-bound regime the oracle pins",
					an.Transfer+an.Kernel, an.Alloc)
			}
			if len(study.Points) != len(g.gpus)*len(g.kinds) {
				t.Fatalf("got %d grid points, want %d", len(study.Points), len(g.gpus)*len(g.kinds))
			}
			p := multiGPUPoint(t, study, topo.PCIeSwitch, 1)
			const rel = 1e-9
			if !relClose(p.Serial.Makespan, an.SerialTotal, rel) {
				t.Errorf("1-GPU serial makespan %v, analytic %v", p.Serial.Makespan, an.SerialTotal)
			}
			if !relClose(p.Pipelined.Makespan, an.PipelinedTotal, rel) {
				t.Errorf("1-GPU pipelined makespan %v, analytic %v", p.Pipelined.Makespan, an.PipelinedTotal)
			}
			if !relClose(p.Improvement, an.Improvement, 1e-6) {
				t.Errorf("1-GPU improvement %v, analytic %v", p.Improvement, an.Improvement)
			}
			if p.Improvement <= 0 || an.Improvement <= 0 {
				t.Errorf("pipelining should improve the GPU-bound batch, got %v (analytic %v)",
					p.Improvement, an.Improvement)
			}
			// One GPU serializes the transfers, so the fabric never contends.
			if !relClose(p.Serial.TransferStretch, 1, rel) || !relClose(p.Pipelined.TransferStretch, 1, rel) {
				t.Errorf("uncontended stretch = %v / %v, want 1",
					p.Serial.TransferStretch, p.Pipelined.TransferStretch)
			}
		})
	}
}

// TestMultiGPUContentionErodesGain pins the study's headline result: on
// a shared PCIe-switch uplink, adding GPUs stretches transfers and
// erodes the pipeline gain, while point-to-point NVLink keeps transfers
// at solo speed and retains most of it.
func TestMultiGPUContentionErodesGain(t *testing.T) {
	for _, g := range []multiGPUGrid{
		{"6 jobs", 6, []int{1, 4}, []topo.Kind{topo.PCIeSwitch, topo.NVLink}},
		defaultMultiGPUGrid,
	} {
		t.Run(g.name, func(t *testing.T) {
			r := testRunner(2)
			study, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, workloads.Super,
				g.jobs, g.gpus, g.kinds, sched.LeastLoaded)
			if err != nil {
				t.Fatal(err)
			}
			sw1 := multiGPUPoint(t, study, topo.PCIeSwitch, 1)
			sw4 := multiGPUPoint(t, study, topo.PCIeSwitch, 4)
			nv4 := multiGPUPoint(t, study, topo.NVLink, 4)
			if sw4.Improvement >= sw1.Improvement {
				t.Errorf("switch contention should erode the gain: 4-GPU %v vs 1-GPU %v",
					sw4.Improvement, sw1.Improvement)
			}
			if sw4.Pipelined.TransferStretch <= 1.1 {
				t.Errorf("4 GPUs on one uplink should stretch transfers, got %v",
					sw4.Pipelined.TransferStretch)
			}
			if !relClose(nv4.Pipelined.TransferStretch, 1, 1e-9) {
				t.Errorf("nvlink transfers should run at solo speed, stretch %v",
					nv4.Pipelined.TransferStretch)
			}
			if nv4.Improvement <= sw4.Improvement {
				t.Errorf("nvlink should retain more gain than the switch: %v vs %v",
					nv4.Improvement, sw4.Improvement)
			}
			// More GPUs never hurt the batch makespan under least-loaded.
			if sw4.Pipelined.Makespan > sw1.Pipelined.Makespan {
				t.Errorf("4-GPU makespan %v above 1-GPU %v", sw4.Pipelined.Makespan, sw1.Pipelined.Makespan)
			}
		})
	}
}

// TestMultiGPUValidation covers the grid-argument errors.
func TestMultiGPUValidation(t *testing.T) {
	r := testRunner(1)
	kinds := []topo.Kind{topo.PCIeSwitch}
	if _, err := r.MultiGPU("vector_seq", cuda.UVM, workloads.Small, 0, []int{1}, kinds, sched.FirstFit); err == nil {
		t.Error("zero jobs accepted")
	}
	if _, err := r.MultiGPU("vector_seq", cuda.UVM, workloads.Small, 2, nil, kinds, sched.FirstFit); err == nil {
		t.Error("empty GPU list accepted")
	}
	if _, err := r.MultiGPU("vector_seq", cuda.UVM, workloads.Small, 2, []int{0}, kinds, sched.FirstFit); err == nil {
		t.Error("zero GPU count accepted")
	}
	if _, err := r.MultiGPU("vector_seq", cuda.UVM, workloads.Small, 2, []int{1}, nil, sched.FirstFit); err == nil {
		t.Error("empty topology list accepted")
	}
	if _, err := r.MultiGPU("no_such_workload", cuda.UVM, workloads.Small, 2, []int{1}, kinds, sched.FirstFit); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestMultiGPUFanoutDeterminism: the study must be identical — field for
// field — between the serial executor and any fan-out width, the
// property behind `-par` never changing bytes.
func TestMultiGPUFanoutDeterminism(t *testing.T) {
	run := func(par int) *MultiGPUStudy {
		r := testRunner(3)
		r.Parallelism = par
		study, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, workloads.Large,
			4, []int{1, 2}, []topo.Kind{topo.PCIeSwitch, topo.NVLink}, sched.LeastLoaded)
		if err != nil {
			t.Fatal(err)
		}
		return study
	}
	want := run(1)
	for _, par := range []int{2, 4, 8} {
		if got := run(par); !reflect.DeepEqual(got, want) {
			t.Errorf("par=%d: study differs from serial", par)
		}
	}
}
