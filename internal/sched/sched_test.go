package sched

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"uvmasim/internal/profile"
	"uvmasim/internal/sim"
	"uvmasim/internal/topo"
)

func testTopo(t *testing.T, eng *sim.Engine, kind topo.Kind, gpus int) *topo.Topology {
	t.Helper()
	tp, err := topo.New(eng, profile.Default().Config, kind, gpus)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// uniformJobs builds n identical jobs arriving at time zero whose
// transfer runs at exactly the device link rate (no self-capping).
func uniformJobs(t *testing.T, n int, alloc, transfer, kernel float64) []Job {
	t.Helper()
	link := profile.Default().Config.PCIe.BytesPerNs()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID: i, AllocNs: alloc, TransferNs: transfer, KernelNs: kernel,
			Bytes: link * transfer,
		}
	}
	return jobs
}

// TestSerialMatchesAnalytic pins the serial schedule to the §6 analytic
// model: J jobs on one GPU take exactly J*(alloc+transfer+kernel).
func TestSerialMatchesAnalytic(t *testing.T) {
	const jobs, a, tr, k = 5, 300.0, 400.0, 600.0
	eng := sim.New()
	tp := testTopo(t, eng, topo.PCIeSwitch, 1)
	st, err := Run(eng, tp, uniformJobs(t, jobs, a, tr, k), Options{Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	want := jobs * (a + tr + k)
	if math.Abs(st.Makespan-want) > 1e-6 {
		t.Fatalf("serial makespan = %v, want analytic %v", st.Makespan, want)
	}
	if math.Abs(st.TransferStretch-1) > 1e-9 {
		t.Fatalf("solo transfers must not stretch, got %v", st.TransferStretch)
	}
}

// TestPipelinedMatchesAnalytic pins the pipelined schedule to the §6
// projection in the GPU-bound regime (transfer+kernel >= alloc): the
// first alloc is exposed, then every job costs its GPU phase, so the
// makespan is alloc + J*(transfer+kernel).
func TestPipelinedMatchesAnalytic(t *testing.T) {
	const jobs, a, tr, k = 5, 300.0, 400.0, 600.0 // tr+k=1000 > a
	eng := sim.New()
	tp := testTopo(t, eng, topo.PCIeSwitch, 1)
	st, err := Run(eng, tp, uniformJobs(t, jobs, a, tr, k), Options{Policy: LeastLoaded, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	want := a + jobs*(tr+k)
	if math.Abs(st.Makespan-want) > 1e-6 {
		t.Fatalf("pipelined makespan = %v, want analytic %v", st.Makespan, want)
	}
}

// TestPipelinedCPUBoundRegime pins the other regime: when alloc
// dominates the GPU phase, the host thread is the bottleneck and the
// makespan is J*alloc + (transfer+kernel) (the last GPU phase exposed).
func TestPipelinedCPUBoundRegime(t *testing.T) {
	const jobs, a, tr, k = 4, 1000.0, 200.0, 300.0 // a > tr+k
	eng := sim.New()
	tp := testTopo(t, eng, topo.PCIeSwitch, 1)
	st, err := Run(eng, tp, uniformJobs(t, jobs, a, tr, k), Options{Policy: LeastLoaded, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	want := jobs*a + tr + k
	if math.Abs(st.Makespan-want) > 1e-6 {
		t.Fatalf("cpu-bound pipelined makespan = %v, want %v", st.Makespan, want)
	}
}

// TestSwitchContentionStretchesTransfers pins the tentpole effect: two
// GPUs behind one switch uplink halve each other's transfer bandwidth,
// while the same placement on NVLink does not contend.
func TestSwitchContentionStretchesTransfers(t *testing.T) {
	jobs := uniformJobs(t, 2, 0, 1000, 500)

	run := func(kind topo.Kind) *Stats {
		eng := sim.New()
		tp := testTopo(t, eng, kind, 2)
		st, err := Run(eng, tp, jobs, Options{Policy: LeastLoaded})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	sw := run(topo.PCIeSwitch)
	if math.Abs(sw.TransferStretch-2) > 1e-6 {
		t.Fatalf("switch transfer stretch = %v, want 2 (halved uplink)", sw.TransferStretch)
	}
	nv := run(topo.NVLink)
	if math.Abs(nv.TransferStretch-1) > 1e-6 {
		t.Fatalf("nvlink transfer stretch = %v, want 1 (private links)", nv.TransferStretch)
	}
	if nv.Makespan >= sw.Makespan {
		t.Fatalf("nvlink makespan %v should beat switch %v", nv.Makespan, sw.Makespan)
	}
}

// TestLeastLoadedSpreads checks that identical simultaneous jobs
// round-robin across devices, while first-fit dumps the overflow of a
// simultaneous batch onto GPU 0 once every device looks busy.
func TestLeastLoadedSpreads(t *testing.T) {
	jobs := uniformJobs(t, 6, 100, 200, 300)
	eng := sim.New()
	tp := testTopo(t, eng, topo.NVLink, 4)

	ll := Place(tp, jobs, LeastLoaded)
	for i, g := range ll {
		if g != i%4 {
			t.Fatalf("least-loaded placement = %v, want round-robin", ll)
		}
	}
	ff := Place(tp, jobs, FirstFit)
	want := []int{0, 1, 2, 3, 0, 0}
	for i, g := range ff {
		if g != want[i] {
			t.Fatalf("first-fit placement = %v, want %v (overflow piles on GPU 0)", ff, want)
		}
	}
}

// TestBandwidthAwareAvoidsSaturatedFabric: with staggered arrivals that
// first-fit would pack onto GPU 0, bandwidth-aware spreads jobs and
// finishes no later than first-fit on a contended switch.
func TestBandwidthAwareAvoidsSaturatedFabric(t *testing.T) {
	jobs := uniformJobs(t, 4, 100, 1000, 200)
	run := func(p Policy) float64 {
		eng := sim.New()
		tp := testTopo(t, eng, topo.PCIeSwitch, 2)
		st, err := Run(eng, tp, jobs, Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	ba := run(BandwidthAware)
	ff := run(FirstFit)
	if ba > ff+1e-9 {
		t.Fatalf("bandwidth-aware makespan %v should not exceed first-fit %v", ba, ff)
	}
}

// TestArrivalsRespected: a job cannot start before it arrives.
func TestArrivalsRespected(t *testing.T) {
	jobs := uniformJobs(t, 2, 100, 200, 300)
	jobs[1].Arrival = 5000
	eng := sim.New()
	tp := testTopo(t, eng, topo.PCIeSwitch, 2)
	st, err := Run(eng, tp, jobs, Options{Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs[1].AllocStart < 5000 {
		t.Fatalf("job 1 started at %v before its arrival 5000", st.Jobs[1].AllocStart)
	}
}

// TestDeterminism: two identical runs produce bit-identical stats.
func TestDeterminism(t *testing.T) {
	jobs := uniformJobs(t, 8, 137, 411, 593)
	for i := range jobs {
		jobs[i].Arrival = float64(i * 97)
	}
	run := func() *Stats {
		eng := sim.New()
		tp := testTopo(t, eng, topo.PCIeSwitch, 3)
		st, err := Run(eng, tp, jobs, Options{Policy: BandwidthAware, Pipelined: true})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.TransferStretch != b.TransferStretch {
		t.Fatalf("nondeterministic aggregate stats: %+v vs %+v", a, b)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d stats differ: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for i, name := range PolicyNames {
		p, err := ParsePolicy(name)
		if err != nil || p != Policy(i) {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
		if p.String() != name {
			t.Fatalf("String() = %q, want %q", p.String(), name)
		}
	}
	if _, err := ParsePolicy("least-loadd"); err == nil {
		t.Fatal("typo should fail")
	}
}

func TestRunValidation(t *testing.T) {
	eng := sim.New()
	tp := testTopo(t, eng, topo.PCIeSwitch, 1)
	if _, err := Run(eng, tp, nil, Options{}); err == nil {
		t.Fatal("no jobs should fail")
	}
	if _, err := Run(eng, tp, []Job{{AllocNs: -1}}, Options{}); err == nil {
		t.Fatal("negative stage should fail")
	}
}

// TestWriteChromeTrace: valid JSON, deterministic bytes, per-GPU rows.
func TestWriteChromeTrace(t *testing.T) {
	jobs := uniformJobs(t, 4, 100, 400, 300)
	eng := sim.New()
	tp := testTopo(t, eng, topo.PCIeSwitch, 2)
	st, err := Run(eng, tp, jobs, Options{Policy: LeastLoaded, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := st.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("trace output not deterministic")
	}
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	events := doc["traceEvents"].([]any)
	var gpu1 bool
	for _, e := range events {
		m := e.(map[string]any)
		if name, _ := m["args"].(map[string]any)["name"].(string); name == "gpu1 kernel" {
			gpu1 = true
		}
	}
	if !gpu1 {
		t.Fatal("trace missing gpu1 kernel row")
	}
}
