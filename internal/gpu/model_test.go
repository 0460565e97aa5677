package gpu

import (
	"math"
	"testing"
)

// vectorSpec is a vector_seq-like memory-bound streaming kernel:
// 128M float32 elements, ~40 flops each (the arithmetic iterations of the
// Svedin et al. benchmark the paper builds on).
func vectorSpec() KernelSpec {
	const n = 128 << 20
	return KernelSpec{
		Name:            "vector_seq",
		Blocks:          4096,
		ThreadsPerBlock: 256,
		LoadBytes:       4 * n,
		StoreBytes:      4 * n,
		Flops:           40 * n,
		IntOps:          6 * n,
		CtrlOps:         1 * n / 8,
		TileBytes:       16 << 10,
		Access:          Sequential,
		WorkingSetKB:    8,
	}
}

// gemmSpec is a tiled dense matmul: compute bound, strided tile loads.
func gemmSpec(n int64) KernelSpec {
	reload := n / 128 // each element re-read n/tileDim times
	return KernelSpec{
		Name:                "gemm",
		Blocks:              4096,
		ThreadsPerBlock:     256,
		LoadBytes:           3 * 4 * n * n,
		LoadAccessBytes:     2 * 4 * n * n * reload,
		StoreBytes:          4 * n * n,
		Flops:               2 * float64(n) * float64(n) * float64(n),
		IntOps:              float64(n*n) * 8,
		CtrlOps:             float64(n*n) / 4,
		TileBytes:           16 << 10,
		Access:              Strided,
		WorkingSetKB:        64,
		AsyncComputePenalty: 1.08,
	}
}

// ludSpec is an irregular, latency-sensitive kernel.
func ludSpec() KernelSpec {
	const n = 8192
	return KernelSpec{
		Name:            "lud",
		Blocks:          2048,
		ThreadsPerBlock: 256,
		LoadBytes:       4 * n * n,
		LoadAccessBytes: 4 * n * n * 12,
		StoreBytes:      4 * n * n,
		Flops:           float64(n) * float64(n) * 40,
		IntOps:          float64(n*n) * 20,
		CtrlOps:         float64(n*n) * 2,
		TileBytes:       8 << 10,
		Access:          Irregular,
		WorkingSetKB:    256,
	}
}

func TestA100Config(t *testing.T) {
	c := A100()
	if got := c.FlopsPerNs(); math.Abs(got-19491.84) > 1 {
		t.Errorf("A100 peak = %v flops/ns, want ~19491 (19.5 TFLOPS)", got)
	}
	if c.L1KB(164) != 28 {
		t.Errorf("L1 at max shared = %v, want 28", c.L1KB(164))
	}
	if c.L1KB(0) != 192 {
		t.Errorf("L1 with no shared = %v, want 192", c.L1KB(0))
	}
	if c.ClampSharedKB(500) != 164 || c.ClampSharedKB(-3) != 0 {
		t.Errorf("ClampSharedKB broken")
	}
}

func TestOccupancyBasics(t *testing.T) {
	m := NewModel(A100())
	occ := m.occupancy(vectorSpec().withDefaults(), ExecConfig{})
	if occ.BlocksPerSM != 5 { // 164KB / 32KB shared per block
		t.Errorf("BlocksPerSM = %d, want 5 (shared-limited)", occ.BlocksPerSM)
	}
	if occ.SMUtilization != 1 {
		t.Errorf("SMUtilization = %v, want 1", occ.SMUtilization)
	}
	if occ.Fraction <= 0 || occ.Fraction > 1 {
		t.Errorf("occupancy fraction %v out of range", occ.Fraction)
	}
}

func TestOccupancySharedLimits(t *testing.T) {
	m := NewModel(A100())
	s := vectorSpec().withDefaults()
	// 128 KB per block: at most one block per SM fits in 164 KB.
	occ := m.occupancy(s, ExecConfig{SharedPerBlockKB: 128})
	if occ.BlocksPerSM != 1 {
		t.Errorf("BlocksPerSM = %d, want 1 with 128KB shared", occ.BlocksPerSM)
	}
	// 2 KB per block: thread limit (2048/256 = 8) binds instead.
	occ = m.occupancy(s, ExecConfig{SharedPerBlockKB: 2})
	if occ.BlocksPerSM != 8 {
		t.Errorf("BlocksPerSM = %d, want 8 with 2KB shared", occ.BlocksPerSM)
	}
	if occ.L1KB <= m.Config().L1KB(16)-1e9 { // sanity on partition math
		t.Errorf("unexpected L1 %v", occ.L1KB)
	}
}

func TestOccupancyFewBlocks(t *testing.T) {
	m := NewModel(A100())
	s := vectorSpec()
	s.Blocks = 16
	occ := m.occupancy(s.withDefaults(), ExecConfig{})
	if occ.BlocksPerSM != 1 {
		t.Errorf("BlocksPerSM = %d, want 1 for a 16-block grid", occ.BlocksPerSM)
	}
	if math.Abs(occ.SMUtilization-16.0/108) > 1e-9 {
		t.Errorf("SMUtilization = %v, want 16/108", occ.SMUtilization)
	}
}

// Async staging must cut the kernel time of a memory-bound streaming
// workload appreciably (§4.1.1: -41.78% for vector_seq) but must slow a
// compute-bound tiled workload via control overhead (gemm +7.86% under
// prefetch+async).
func TestAsyncHelpsStreamingHurtsCompute(t *testing.T) {
	m := NewModel(A100())

	vSync := m.Launch(vectorSpec(), ExecConfig{})
	vAsync := m.Launch(vectorSpec(), ExecConfig{Async: true})
	red := 1 - vAsync.ExecTime/vSync.ExecTime
	if red < 0.15 || red > 0.60 {
		t.Errorf("vector_seq async kernel reduction = %.1f%%, want 15-60%% (paper: 41.78%%)", red*100)
	}

	g := gemmSpec(8192)
	gSync := m.Launch(g, ExecConfig{})
	gAsync := m.Launch(g, ExecConfig{Async: true})
	inc := gAsync.ExecTime/gSync.ExecTime - 1
	if inc < 0.01 || inc > 0.5 {
		t.Errorf("gemm async kernel increase = %.1f%%, want 1-50%% (paper: +7.86%%)", inc*100)
	}
}

// Managed memory adds page-walk overhead; irregular patterns pay more.
func TestManagedWalkOverhead(t *testing.T) {
	m := NewModel(A100())
	for _, spec := range []KernelSpec{vectorSpec(), ludSpec()} {
		plain := m.Launch(spec, ExecConfig{})
		managed := m.Launch(spec, ExecConfig{Managed: true})
		if managed.ExecTime <= plain.ExecTime {
			t.Errorf("%s: managed exec %v not slower than plain %v",
				spec.Name, managed.ExecTime, plain.ExecTime)
		}
	}
	vRel := m.Launch(vectorSpec(), ExecConfig{Managed: true}).FetchTime /
		m.Launch(vectorSpec(), ExecConfig{}).FetchTime
	lRel := m.Launch(ludSpec(), ExecConfig{Managed: true}).FetchTime /
		m.Launch(ludSpec(), ExecConfig{}).FetchTime
	if lRel <= vRel {
		t.Errorf("irregular walk overhead (%v) should exceed sequential (%v)", lRel, vRel)
	}
}

// Figure 9: async inflates control/integer instruction counts; UVM does not.
func TestInstructionMix(t *testing.T) {
	m := NewModel(A100())
	g := gemmSpec(4096)
	std := m.Launch(g, ExecConfig{})
	asy := m.Launch(g, ExecConfig{Async: true})
	uvm := m.Launch(g, ExecConfig{Managed: true, DriverPrefetch: true})

	if asy.Inst.Ctrl <= std.Inst.Ctrl*1.2 {
		t.Errorf("async ctrl %v should be >20%% above standard %v", asy.Inst.Ctrl, std.Inst.Ctrl)
	}
	if asy.Inst.Int <= std.Inst.Int {
		t.Errorf("async int %v should exceed standard %v", asy.Inst.Int, std.Inst.Int)
	}
	if uvm.Inst.Ctrl != std.Inst.Ctrl || uvm.Inst.Int != std.Inst.Int {
		t.Errorf("UVM should not change the instruction mix")
	}
	if std.Inst.FP != g.Flops/2 {
		t.Errorf("FP inst = %v, want flops/2", std.Inst.FP)
	}
}

// Figure 10: async staging reduces L1 load and store miss rates for the
// irregular workload, with the store reduction larger.
func TestCacheMissReduction(t *testing.T) {
	m := NewModel(A100())
	l := ludSpec()
	std := m.Launch(l, ExecConfig{})
	asy := m.Launch(l, ExecConfig{Async: true})
	loadRed := 1 - asy.L1.LoadMissRate()/std.L1.LoadMissRate()
	storeRed := 1 - asy.L1.StoreMissRate()/std.L1.StoreMissRate()
	if loadRed < 0.2 || loadRed > 0.6 {
		t.Errorf("lud load miss reduction = %.1f%%, want 20-60%% (paper: 35.96%%)", loadRed*100)
	}
	if storeRed < 0.4 || storeRed > 0.9 {
		t.Errorf("lud store miss reduction = %.1f%%, want 40-90%% (paper: 69.99%%)", storeRed*100)
	}
	if storeRed <= loadRed {
		t.Errorf("store reduction (%v) should exceed load reduction (%v)", storeRed, loadRed)
	}
}

// Takeaway 4: performance is very sensitive to threads per block; a
// 32-thread launch should run the kernel several times slower than a
// 128-thread one (paper: 3.95x), and async recovers much of the loss.
func TestThreadSensitivity(t *testing.T) {
	m := NewModel(A100())
	exec := func(tpb int, async bool) float64 {
		s := vectorSpec()
		s.Blocks = 64
		s.ThreadsPerBlock = tpb
		return m.Launch(s, ExecConfig{Async: async}).ExecTime
	}
	slow := exec(32, false) / exec(128, false)
	if slow < 2 || slow > 8 {
		t.Errorf("32-thread slowdown = %.2fx, want 2-8x (paper: 3.95x)", slow)
	}
	// Async advantage grows with fewer threads (deeper per-thread buffer).
	advAt32 := exec(32, false) / exec(32, true)
	advAt1024 := exec(1024, false) / exec(1024, true)
	if advAt32 <= advAt1024 {
		t.Errorf("async advantage at 32 threads (%.2fx) should exceed 1024 threads (%.2fx)",
			advAt32, advAt1024)
	}
}

// Takeaway 4 (other half): with threads fixed at 256 and total work
// constant, the number of blocks barely matters once the GPU is covered.
func TestBlockInsensitivity(t *testing.T) {
	m := NewModel(A100())
	exec := func(blocks int) float64 {
		s := vectorSpec()
		s.Blocks = blocks
		return m.Launch(s, ExecConfig{}).ExecTime
	}
	base := exec(4096)
	for _, b := range []int{2048, 1024, 512, 256} {
		ratio := exec(b) / base
		if ratio < 0.9 || ratio > 1.2 {
			t.Errorf("exec(%d blocks)/exec(4096) = %v, want ~1", b, ratio)
		}
	}
}

// Takeaway 5: a tiny shared partition starves async staging; a huge one
// shrinks L1 and slows managed-prefetch kernels.
func TestSharedPartitionSensitivity(t *testing.T) {
	m := NewModel(A100())
	s := vectorSpec()

	asyncAt := func(kb float64) float64 {
		return m.Launch(s, ExecConfig{Async: true, SharedPerBlockKB: kb}).ExecTime
	}
	if asyncAt(2) <= asyncAt(32) {
		t.Errorf("2KB shared (%.0f) should be slower than 32KB (%.0f) for async",
			asyncAt(2), asyncAt(32))
	}

	uvmMiss := func(kb float64) float64 {
		r := m.Launch(s, ExecConfig{Managed: true, DriverPrefetch: true, SharedPerBlockKB: kb})
		return r.L1.LoadMissRate()
	}
	if uvmMiss(128) <= uvmMiss(2) {
		t.Errorf("large shared carveout should raise UVM miss rate: 128KB=%v 2KB=%v",
			uvmMiss(128), uvmMiss(2))
	}
}

// The irregular workload's async speedup must exceed the sequential one's
// relative to its own sync baseline on the fetch path (Takeaway 2's
// mechanism: staging converts scattered access into streams).
func TestAsyncTrafficReduction(t *testing.T) {
	m := NewModel(A100())
	l := ludSpec()
	std := m.Launch(l, ExecConfig{})
	asy := m.Launch(l, ExecConfig{Async: true})
	if asy.TrafficBytes >= std.TrafficBytes {
		t.Errorf("async should reduce irregular HBM traffic: %v >= %v",
			asy.TrafficBytes, std.TrafficBytes)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []KernelSpec{
		{Name: "b1", Blocks: 0, ThreadsPerBlock: 64},
		{Name: "b2", Blocks: 1, ThreadsPerBlock: 0},
		{Name: "b3", Blocks: 1, ThreadsPerBlock: 2048},
		{Name: "b4", Blocks: 1, ThreadsPerBlock: 64, LoadBytes: -1},
		{Name: "b5", Blocks: 1, ThreadsPerBlock: 64, Flops: -1},
		{Name: "b6", Blocks: 1, ThreadsPerBlock: 64, LoadBytes: 100, LoadAccessBytes: 50},
		{Name: "b7", Blocks: 1, ThreadsPerBlock: 64, StagedFraction: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %s should fail validation", s.Name)
		}
	}
	good := vectorSpec().withDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	s := KernelSpec{Name: "d", Blocks: 1, ThreadsPerBlock: 32, LoadBytes: 1000}
	d := s.withDefaults()
	if d.StagedFraction != 1.0 || d.AsyncCtrlFactor != 1.40 ||
		d.AsyncLoadInflation != 1.0 || d.AsyncComputePenalty != 1.0 ||
		d.SyncStageOverhead != 0.35 || d.TileBytes != 32<<10 ||
		d.LoadAccessBytes != 1000 {
		t.Errorf("defaults not applied: %+v", d)
	}
}

func TestAccessStrings(t *testing.T) {
	for a, want := range map[Access]string{
		Sequential: "sequential", Strided: "strided",
		Irregular: "irregular", Random: "random",
	} {
		if a.String() != want {
			t.Errorf("Access(%d).String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestLaunchPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Launch with invalid spec should panic")
		}
	}()
	NewModel(A100()).Launch(KernelSpec{Name: "bad"}, ExecConfig{})
}

// Component times must be non-negative and exec must be at least the
// largest single component under async (pipeline law).
func TestComponentSanity(t *testing.T) {
	m := NewModel(A100())
	for _, spec := range []KernelSpec{vectorSpec(), gemmSpec(2048), ludSpec()} {
		for _, e := range []ExecConfig{{}, {Async: true}, {Managed: true}, {Async: true, Managed: true, DriverPrefetch: true}} {
			r := m.Launch(spec, e)
			if r.ExecTime <= 0 || r.FetchTime < 0 || r.ComputeTime < 0 || r.StoreTime < 0 {
				t.Errorf("%s %+v: negative component: %+v", spec.Name, e, r)
			}
			if e.Async && r.ExecTime < math.Max(r.FetchTime, r.ComputeTime)-1e-9 {
				t.Errorf("%s: async exec %v below max component", spec.Name, r.ExecTime)
			}
			if r.HideFactor <= 0 || r.HideFactor > 1 {
				t.Errorf("%s: hide factor %v out of range", spec.Name, r.HideFactor)
			}
		}
	}
}
