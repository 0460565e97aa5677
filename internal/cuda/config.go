package cuda

import (
	"uvmasim/internal/devmem"
	"uvmasim/internal/gpu"
	"uvmasim/internal/hostmem"
	"uvmasim/internal/pcie"
	"uvmasim/internal/uvm"
)

// SystemConfig assembles the whole heterogeneous system model.
type SystemConfig struct {
	GPU   gpu.Config
	PCIe  pcie.Config
	Host  hostmem.Config
	UVM   uvm.Config
	Alloc devmem.CostModel

	// SystemOverheadNs is the fixed per-process cost (CUDA context
	// creation, module loading, profiler attach) visible as the common
	// floor of the Figure 4 Tiny-input measurements (~0.2 s).
	SystemOverheadNs float64
	// OverheadJitterRel is the relative run-to-run jitter of the fixed
	// overhead and allocation costs.
	OverheadJitterRel float64
	// KernelLaunchNs is the per-launch driver cost.
	KernelLaunchNs float64
	// ManagedCapacityFraction bounds the share of device memory that
	// managed chunks may occupy before the driver starts evicting.
	ManagedCapacityFraction float64
	// HostConsumeFraction is the share of an output buffer the host
	// actually touches when consuming results (Consume); UVM writes back
	// only these pages.
	HostConsumeFraction float64
}

// ManagedCapacity returns the device bytes managed chunks may occupy
// before the UVM driver starts evicting: HBMCapacity ×
// ManagedCapacityFraction, truncated to whole bytes.
func (c SystemConfig) ManagedCapacity() int64 {
	return int64(float64(c.GPU.HBMCapacity) * c.ManagedCapacityFraction)
}

// FitsFootprint reports whether a workload footprint can run under
// every registered setup on this system: the explicit-copy setups
// need the whole footprint resident in device memory at once (managed
// setups may oversubscribe), and every setup stages the footprint in
// host DRAM, of which the worst ambient draw leaves
// (1-AmbientMax) x capacity free. The harness uses this to drop
// size classes a smaller-memory profile cannot host — on the default
// A100-40GB profile every paper size class fits.
func (c SystemConfig) FitsFootprint(footprint int64) bool {
	if footprint > c.GPU.HBMCapacity {
		return false
	}
	hostFree := float64(c.Host.Chips) * float64(c.Host.ChipCapacity) * (1 - c.Host.AmbientMax)
	return float64(footprint) <= hostFree
}

// DefaultSystemConfig models the paper's testbed: an A100-40GB attached
// to a 16-chip EPYC host over PCIe 4.0 x16.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		GPU:   gpu.A100(),
		PCIe:  pcie.DefaultConfig(),
		Host:  hostmem.DefaultConfig(),
		UVM:   uvm.DefaultConfig(),
		Alloc: devmem.DefaultCostModel(),

		SystemOverheadNs:        1.9e8,
		OverheadJitterRel:       0.03,
		KernelLaunchNs:          6e3,
		ManagedCapacityFraction: 0.95,
		HostConsumeFraction:     1.0 / 16,
	}
}
