package profile

import (
	"fmt"
	"math"
	"strings"

	"uvmasim/internal/cuda"
)

// violations accumulates human-readable validation failures so one
// Validate call reports every problem at once.
type violations []string

func (v *violations) addf(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// Bounds that keep every derived duration finite. A run sums the
// durations of up to millions of transfers and kernels, and a duration
// is a fixed cost, a size over a derated rate, a work count over a
// product of per-device counts, or one of these scaled by a slowdown
// factor. A rate below minRate (1 KB/s in GB/s, 1 kHz in GHz), a link
// efficiency below minEff, a fixed or per-GB cost above maxNs (about 32
// years), a slowdown factor above maxFactor, or a count above maxCount
// makes single durations or products so large that their sums overflow
// to +Inf; then the tables print NaN, or the UVM evictor meets a chunk
// whose arrival is +Inf. Every bound sits orders of magnitude outside
// any real machine.
const (
	minRate   = 1e-6
	minEff    = 1e-6
	maxNs     = 1e18
	maxFactor = 1e6
	maxCount  = 1 << 20
)

// pos requires a finite val > 0.
func (v *violations) pos(name string, val float64) {
	if !(val > 0) || math.IsInf(val, 1) { // rejects NaN too
		v.addf("%s must be positive and finite, got %v", name, val)
	}
}

// nonneg requires val >= 0.
func (v *violations) nonneg(name string, val float64) {
	if !(val >= 0) {
		v.addf("%s must be non-negative, got %v", name, val)
	}
}

// upTo requires val in [0, max].
func (v *violations) upTo(name string, val, max float64) {
	if !(val >= 0 && val <= max) {
		v.addf("%s must be in [0, %g], got %v", name, max, val)
	}
}

// rate requires a finite rate of at least minRate.
func (v *violations) rate(name string, val float64) {
	if !(val >= minRate) || math.IsInf(val, 1) {
		v.addf("%s must be a finite rate of at least %g, got %v", name, minRate, val)
	}
}

// count requires a per-device count in [1, maxCount].
func (v *violations) count(name string, val int) {
	if val < 1 || val > maxCount {
		v.addf("%s must be in [1, %d], got %d", name, maxCount, val)
	}
}

// eff requires a link efficiency in [minEff, 1].
func (v *violations) eff(name string, val float64) {
	if !(val >= minEff && val <= 1) {
		v.addf("%s must be in [%g, 1], got %v", name, minEff, val)
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

// Validate rejects nonsensical system configurations: non-positive or
// infinite quantities; rates, link efficiencies, costs, slowdown factors
// and per-device counts outside the bounds that keep every derived
// duration finite; shared-memory carveouts exceeding the unified cache;
// fractions outside their ranges; a managed capacity smaller than one
// migration chunk. It reports every violation, not just the first, so a
// hand-written profile JSON can be fixed in one pass.
func Validate(cfg cuda.SystemConfig) error {
	var v violations

	g := cfg.GPU
	v.count("gpu.SMs", g.SMs)
	v.count("gpu.CoresPerSM", g.CoresPerSM)
	v.rate("gpu.ClockGHz", g.ClockGHz)
	v.count("gpu.MaxThreadsPerSM", g.MaxThreadsPerSM)
	v.count("gpu.MaxBlocksPerSM", g.MaxBlocksPerSM)
	v.count("gpu.MaxWarpsPerSM", g.MaxWarpsPerSM)
	v.count("gpu.WarpSize", g.WarpSize)
	v.rate("gpu.HBMBandwidthGBs", g.HBMBandwidthGBs)
	v.upTo("gpu.HBMLatencyNs", g.HBMLatencyNs, maxNs)
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
	v.rate("pcie.BandwidthGBs", p.BandwidthGBs)
	v.upTo("pcie.LatencyNs", p.LatencyNs, maxNs)
	v.eff("pcie.BulkEfficiency", p.BulkEfficiency)
	v.eff("pcie.PrefetchEfficiency", p.PrefetchEfficiency)
	v.eff("pcie.FaultEfficiency", p.FaultEfficiency)
	v.eff("pcie.WritebackEfficiency", p.WritebackEfficiency)

	h := cfg.Host
	v.count("host.Chips", h.Chips)
	v.pos("host.ChipCapacity", float64(h.ChipCapacity))
	v.frac0lt1("host.AmbientMin", h.AmbientMin)
	v.frac0lt1("host.AmbientMax", h.AmbientMax)
	if h.AmbientMax < h.AmbientMin {
		v.addf("host.AmbientMax (%v) is below host.AmbientMin (%v)", h.AmbientMax, h.AmbientMin)
	}
	v.upTo("host.CrossPenalty", h.CrossPenalty, maxFactor)
	v.upTo("host.CrossJitter", h.CrossJitter, maxFactor)

	u := cfg.UVM
	v.pos("uvm.ChunkBytes", float64(u.ChunkBytes))
	v.pos("uvm.FaultBlockBytes", float64(u.FaultBlockBytes))
	if u.FaultBlockBytes > u.ChunkBytes {
		v.addf("uvm.FaultBlockBytes (%d) exceeds uvm.ChunkBytes (%d)", u.FaultBlockBytes, u.ChunkBytes)
	}
	v.upTo("uvm.FaultBatchLatencyNs", u.FaultBatchLatencyNs, maxNs)
	v.upTo("uvm.PrefetchCallNs", u.PrefetchCallNs, maxNs)
	v.upTo("uvm.ResidentPrefetchNsPerGB", u.ResidentPrefetchNsPerGB, maxNs)

	a := cfg.Alloc
	v.upTo("alloc.MallocBase", a.MallocBase, maxNs)
	v.upTo("alloc.MallocPerGB", a.MallocPerGB, maxNs)
	v.upTo("alloc.ManagedBase", a.ManagedBase, maxNs)
	v.upTo("alloc.ManagedPerGB", a.ManagedPerGB, maxNs)
	v.upTo("alloc.FreeBase", a.FreeBase, maxNs)
	v.upTo("alloc.FreePerGB", a.FreePerGB, maxNs)
	v.upTo("alloc.ManagedFreePerGB", a.ManagedFreePerGB, maxNs)

	v.upTo("SystemOverheadNs", cfg.SystemOverheadNs, maxNs)
	v.frac0lt1("OverheadJitterRel", cfg.OverheadJitterRel)
	v.upTo("KernelLaunchNs", cfg.KernelLaunchNs, maxNs)
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
