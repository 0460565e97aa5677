// Package counters mirrors the role CUPTI and Linux perf play in the
// paper: it accumulates the hardware events the analysis sections read —
// instruction mix (Figure 9), unified-L1 load/store miss rates
// (Figure 10), data-transfer volumes, UVM fault activity and SM occupancy
// (§6).
package counters

// InstMix counts executed instructions by class. Counts are float64
// because they come from an analytic model, not discrete retirement.
type InstMix struct {
	Mem  float64 `json:"mem"`  // global/shared load & store instructions
	FP   float64 `json:"fp"`   // floating-point instructions
	Int  float64 `json:"int"`  // integer (address arithmetic) instructions
	Ctrl float64 `json:"ctrl"` // control (branch/loop/pipeline-barrier) instructions
}

// Add accumulates o into m.
func (m *InstMix) Add(o InstMix) {
	m.Mem += o.Mem
	m.FP += o.FP
	m.Int += o.Int
	m.Ctrl += o.Ctrl
}

// Total returns the total instruction count across classes.
func (m InstMix) Total() float64 { return m.Mem + m.FP + m.Int + m.Ctrl }

// L1Stats captures unified L1/texture cache activity for global loads and
// stores, the two counters Figure 10 compares.
type L1Stats struct {
	LoadAccesses  float64 `json:"load_accesses"`
	LoadMisses    float64 `json:"load_misses"`
	StoreAccesses float64 `json:"store_accesses"`
	StoreMisses   float64 `json:"store_misses"`
}

// Add accumulates o into s.
func (s *L1Stats) Add(o L1Stats) {
	s.LoadAccesses += o.LoadAccesses
	s.LoadMisses += o.LoadMisses
	s.StoreAccesses += o.StoreAccesses
	s.StoreMisses += o.StoreMisses
}

// LoadMissRate returns misses/accesses for global loads (0 when idle).
func (s L1Stats) LoadMissRate() float64 {
	if s.LoadAccesses == 0 {
		return 0
	}
	return s.LoadMisses / s.LoadAccesses
}

// StoreMissRate returns misses/accesses for global stores (0 when idle).
func (s L1Stats) StoreMissRate() float64 {
	if s.StoreAccesses == 0 {
		return 0
	}
	return s.StoreMisses / s.StoreAccesses
}

// UVMStats counts unified-memory driver activity.
type UVMStats struct {
	PageFaults     float64 `json:"page_faults"`     // GPU-side page faults raised
	FaultBatches   float64 `json:"fault_batches"`   // fault groups serviced together
	MigratedBytes  float64 `json:"migrated_bytes"`  // host->device on-demand migration volume
	PrefetchBytes  float64 `json:"prefetch_bytes"`  // host->device prefetched volume
	WritebackBytes float64 `json:"writeback_bytes"` // device->host writeback volume
	EvictedBytes   float64 `json:"evicted_bytes"`   // bytes evicted under memory pressure
	Evictions      float64 `json:"evictions"`       // chunks evicted under memory pressure
}

// Set is the full counter group for one run (one process execution in
// the paper's methodology). Its JSON encoding is how the cell store
// persists a cell's counters, so every field round-trips exactly.
type Set struct {
	Inst InstMix  `json:"inst"`
	L1   L1Stats  `json:"l1"`
	UVM  UVMStats `json:"uvm"`

	// Explicit-transfer volumes (cudaMemcpy engine).
	H2DBytes float64 `json:"h2d_bytes"`
	D2HBytes float64 `json:"d2h_bytes"`

	// Occupancy bookkeeping: integral of (active warps / max warps) over
	// kernel execution, and total kernel busy time, so that
	// Occupancy() = time-weighted average occupancy as CUPTI reports it.
	OccupancyIntegral float64 `json:"occupancy_integral"`
	KernelBusyNs      float64 `json:"kernel_busy_ns"`
}

// RecordKernel adds a kernel span with the given time-average occupancy
// (fraction of maximum resident warps, 0..1).
func (s *Set) RecordKernel(duration, occupancy float64) {
	if duration < 0 {
		panic("counters: negative kernel duration")
	}
	s.OccupancyIntegral += duration * occupancy
	s.KernelBusyNs += duration
}

// Occupancy returns the time-weighted average SM occupancy across all
// recorded kernels, or 0 if none ran.
func (s *Set) Occupancy() float64 {
	if s.KernelBusyNs == 0 {
		return 0
	}
	return s.OccupancyIntegral / s.KernelBusyNs
}
