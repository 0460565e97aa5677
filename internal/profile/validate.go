package profile

import (
	"fmt"
	"strings"

	"uvmasim/internal/cuda"
)

// violations accumulates human-readable validation failures so one
// Validate call reports every problem at once.
type violations []string

func (v *violations) addf(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// pos requires val > 0.
func (v *violations) pos(name string, val float64) {
	if !(val > 0) { // rejects NaN too
		v.addf("%s must be positive, got %v", name, val)
	}
}

// nonneg requires val >= 0.
func (v *violations) nonneg(name string, val float64) {
	if !(val >= 0) {
		v.addf("%s must be non-negative, got %v", name, val)
	}
}

// frac01 requires val in (0, 1].
func (v *violations) frac01(name string, val float64) {
	if !(val > 0 && val <= 1) {
		v.addf("%s must be in (0, 1], got %v", name, val)
	}
}

// frac0lt1 requires val in [0, 1).
func (v *violations) frac0lt1(name string, val float64) {
	if !(val >= 0 && val < 1) {
		v.addf("%s must be in [0, 1), got %v", name, val)
	}
}

// Validate rejects nonsensical system configurations: non-positive
// bandwidths, capacities or granules, shared-memory carveouts exceeding
// the unified cache, link efficiencies outside (0, 1], fractions outside
// their ranges, a managed capacity smaller than one migration chunk. It
// reports every violation, not just the first, so a hand-written profile
// JSON can be fixed in one pass.
func Validate(cfg cuda.SystemConfig) error {
	var v violations

	g := cfg.GPU
	v.pos("gpu.SMs", float64(g.SMs))
	v.pos("gpu.CoresPerSM", float64(g.CoresPerSM))
	v.pos("gpu.ClockGHz", g.ClockGHz)
	v.pos("gpu.MaxThreadsPerSM", float64(g.MaxThreadsPerSM))
	v.pos("gpu.MaxBlocksPerSM", float64(g.MaxBlocksPerSM))
	v.pos("gpu.MaxWarpsPerSM", float64(g.MaxWarpsPerSM))
	v.pos("gpu.WarpSize", float64(g.WarpSize))
	v.pos("gpu.HBMBandwidthGBs", g.HBMBandwidthGBs)
	v.nonneg("gpu.HBMLatencyNs", g.HBMLatencyNs)
	v.pos("gpu.HBMCapacity", float64(g.HBMCapacity))
	v.pos("gpu.UnifiedCacheKB", float64(g.UnifiedCacheKB))
	v.nonneg("gpu.MaxSharedKB", float64(g.MaxSharedKB))
	v.nonneg("gpu.MinL1KB", float64(g.MinL1KB))
	if g.MaxSharedKB > g.UnifiedCacheKB {
		v.addf("gpu.MaxSharedKB (%d) exceeds gpu.UnifiedCacheKB (%d)", g.MaxSharedKB, g.UnifiedCacheKB)
	}
	if g.MinL1KB > g.UnifiedCacheKB {
		v.addf("gpu.MinL1KB (%d) exceeds gpu.UnifiedCacheKB (%d)", g.MinL1KB, g.UnifiedCacheKB)
	}
	v.pos("gpu.SyncInflightBytes", g.SyncInflightBytes)
	v.pos("gpu.CacheLineBytes", g.CacheLineBytes)

	p := cfg.PCIe
	v.pos("pcie.BandwidthGBs", p.BandwidthGBs)
	v.nonneg("pcie.LatencyNs", p.LatencyNs)
	v.frac01("pcie.BulkEfficiency", p.BulkEfficiency)
	v.frac01("pcie.PrefetchEfficiency", p.PrefetchEfficiency)
	v.frac01("pcie.FaultEfficiency", p.FaultEfficiency)
	v.frac01("pcie.WritebackEfficiency", p.WritebackEfficiency)

	h := cfg.Host
	v.pos("host.Chips", float64(h.Chips))
	v.pos("host.ChipCapacity", float64(h.ChipCapacity))
	v.frac0lt1("host.AmbientMin", h.AmbientMin)
	v.frac0lt1("host.AmbientMax", h.AmbientMax)
	if h.AmbientMax < h.AmbientMin {
		v.addf("host.AmbientMax (%v) is below host.AmbientMin (%v)", h.AmbientMax, h.AmbientMin)
	}
	v.nonneg("host.CrossPenalty", h.CrossPenalty)
	v.nonneg("host.CrossJitter", h.CrossJitter)

	u := cfg.UVM
	v.pos("uvm.ChunkBytes", float64(u.ChunkBytes))
	v.pos("uvm.FaultBlockBytes", float64(u.FaultBlockBytes))
	if u.FaultBlockBytes > u.ChunkBytes {
		v.addf("uvm.FaultBlockBytes (%d) exceeds uvm.ChunkBytes (%d)", u.FaultBlockBytes, u.ChunkBytes)
	}
	v.nonneg("uvm.FaultBatchLatencyNs", u.FaultBatchLatencyNs)
	v.nonneg("uvm.PrefetchCallNs", u.PrefetchCallNs)
	v.nonneg("uvm.ResidentPrefetchNsPerGB", u.ResidentPrefetchNsPerGB)

	a := cfg.Alloc
	v.nonneg("alloc.MallocBase", a.MallocBase)
	v.nonneg("alloc.MallocPerGB", a.MallocPerGB)
	v.nonneg("alloc.ManagedBase", a.ManagedBase)
	v.nonneg("alloc.ManagedPerGB", a.ManagedPerGB)
	v.nonneg("alloc.FreeBase", a.FreeBase)
	v.nonneg("alloc.FreePerGB", a.FreePerGB)
	v.nonneg("alloc.ManagedFreePerGB", a.ManagedFreePerGB)

	v.nonneg("SystemOverheadNs", cfg.SystemOverheadNs)
	v.frac0lt1("OverheadJitterRel", cfg.OverheadJitterRel)
	v.nonneg("KernelLaunchNs", cfg.KernelLaunchNs)
	v.frac01("ManagedCapacityFraction", cfg.ManagedCapacityFraction)
	v.frac01("HostConsumeFraction", cfg.HostConsumeFraction)
	// Every request for device room is at most one chunk, so a managed
	// capacity of one chunk is the least the evictor can always satisfy.
	if mc := cfg.ManagedCapacity(); g.HBMCapacity > 0 && cfg.ManagedCapacityFraction > 0 && mc < u.ChunkBytes {
		v.addf("managed capacity gpu.HBMCapacity × ManagedCapacityFraction (%d × %v = %d bytes) is below uvm.ChunkBytes (%d)",
			g.HBMCapacity, cfg.ManagedCapacityFraction, mc, u.ChunkBytes)
	}

	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("profile: invalid config: %s", strings.Join(v, "; "))
}

// Validate checks the profile's name and configuration.
func (p Profile) Validate() error {
	if strings.TrimSpace(p.Name) == "" {
		return fmt.Errorf("profile: profile has no name")
	}
	return Validate(p.Config)
}
