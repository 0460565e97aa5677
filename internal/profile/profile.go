// Package profile makes the modelled machine a first-class, swappable
// input to the simulator. The paper's findings are expressed against
// exactly one testbed — an A100-40GB over PCIe 4.0 — but the
// transfer-mode tradeoffs it studies shift dramatically across GPU
// generations (Svedin et al.) and invert entirely on coherent
// CPU-GPU interconnects (Wahlgren et al.). A Profile bundles a complete
// cuda.SystemConfig under a stable name, so every future "new hardware
// scenario" is a data change, not a code change.
//
// The package provides:
//
//   - a registry of validated built-in presets (Builtins, Lookup), with
//     the paper's testbed as Default — bit-identical to
//     cuda.DefaultSystemConfig(), pinned by golden tests;
//   - JSON save/load for user-defined machines (Save, Load, LoadFile),
//     with strict decoding: a loaded file contains exactly the fields it
//     states, zero values stay zero, and nothing is silently filled from
//     defaults, so dump -> load -> Fingerprint is the identity;
//   - Validate, which rejects nonsensical configs (non-positive
//     bandwidths or capacities, shared-memory carveouts exceeding the
//     unified cache, zero fault granules, out-of-range fractions);
//   - Fingerprint, a deterministic digest of the full SystemConfig that
//     keys the experiment cell cache, so cached cells can never leak
//     between profiles.
package profile

import (
	"fmt"

	"uvmasim/internal/cuda"
	"uvmasim/internal/devmem"
	"uvmasim/internal/gpu"
	"uvmasim/internal/hostmem"
	"uvmasim/internal/nearest"
	"uvmasim/internal/pcie"
	"uvmasim/internal/uvm"
)

// Profile is one named, immutable system model. The struct is all
// values (no pointers or slices), so copies are deep and a registry
// lookup can never alias mutable state.
type Profile struct {
	Name        string            `json:"name"`
	Description string            `json:"description"`
	Config      cuda.SystemConfig `json:"config"`
}

// DefaultName is the paper's testbed profile; it is the implicit
// machine everywhere a profile is not given.
const DefaultName = "a100-40g-pcie4"

// builtins maps names to preset constructors. Constructors return fresh
// values on every call, so callers can never mutate the registry.
var builtins = map[string]func() Profile{
	DefaultName:        a10040gPCIe4,
	"v100-16g-pcie3":   v10016gPCIe3,
	"a100-80g-sxm":     a10080gSXM,
	"grace-hopper-c2c": graceHopperC2C,
}

// builtinOrder is the presentation order (paper testbed first, then by
// generation).
var builtinOrder = []string{
	DefaultName,
	"v100-16g-pcie3",
	"a100-80g-sxm",
	"grace-hopper-c2c",
}

// Default returns the paper's testbed profile. Its Config is
// bit-identical to cuda.DefaultSystemConfig(), which the golden tests
// pin byte-for-byte.
func Default() Profile { return a10040gPCIe4() }

// Names lists the built-in profile names in presentation order.
func Names() []string {
	out := make([]string, len(builtinOrder))
	copy(out, builtinOrder)
	return out
}

// Builtins returns every built-in profile in presentation order.
func Builtins() []Profile {
	out := make([]Profile, len(builtinOrder))
	for i, name := range builtinOrder {
		out[i] = builtins[name]()
	}
	return out
}

// Lookup resolves a built-in profile by name. Unknown names get a
// single-line error with the nearest valid name.
func Lookup(name string) (Profile, error) {
	if ctor, ok := builtins[name]; ok {
		return ctor(), nil
	}
	return Profile{}, fmt.Errorf("profile: unknown profile %q%s",
		name, nearest.Hint(name, Names(), 3))
}

// a10040gPCIe4 is the paper's testbed: an A100-SXM4-40GB on a 16-chip
// EPYC host over PCIe 4.0 x16. It must stay bit-identical to
// cuda.DefaultSystemConfig() — the committed goldens depend on it.
func a10040gPCIe4() Profile {
	return Profile{
		Name:        DefaultName,
		Description: "paper testbed: A100-SXM4-40GB, 16x64GB EPYC host, PCIe 4.0 x16",
		Config:      cuda.DefaultSystemConfig(),
	}
}

// v10016gPCIe3 models the previous generation: a V100-16GB on a PCIe
// 3.0 x16 host. Less HBM bandwidth and capacity, a slower link, and
// Volta's slower fault servicing — the machine on which the paper's
// Mega inputs do not even fit device memory.
func v10016gPCIe3() Profile {
	return Profile{
		Name:        "v100-16g-pcie3",
		Description: "previous generation: V100-SXM2-16GB, 16x32GB host, PCIe 3.0 x16",
		Config: cuda.SystemConfig{
			GPU: gpu.Config{
				SMs:             80,
				CoresPerSM:      64,
				ClockGHz:        1.53,
				MaxThreadsPerSM: 2048,
				MaxBlocksPerSM:  32,
				MaxWarpsPerSM:   64,
				WarpSize:        32,

				HBMBandwidthGBs: 900,
				HBMLatencyNs:    440,
				HBMCapacity:     16 << 30,

				UnifiedCacheKB: 128,
				MaxSharedKB:    96,
				MinL1KB:        32,

				SyncInflightBytes: 96,
				CacheLineBytes:    32,
			},
			PCIe: pcie.Config{
				BandwidthGBs:        13,
				LatencyNs:           1800,
				BulkEfficiency:      0.90,
				PrefetchEfficiency:  0.82,
				FaultEfficiency:     0.68,
				WritebackEfficiency: 0.62,
			},
			Host: hostmem.Config{
				Chips:        16,
				ChipCapacity: 32 << 30,
				AmbientMin:   0.30,
				AmbientMax:   0.92,
				CrossPenalty: 1.8,
				CrossJitter:  0.75,
			},
			UVM: uvm.Config{
				ChunkBytes:              2 << 20,
				FaultBlockBytes:         64 << 10,
				FaultBatchLatencyNs:     35e3,
				PrefetchCallNs:          14e3,
				ResidentPrefetchNsPerGB: 1.3e6,
			},
			Alloc: devmem.CostModel{
				MallocBase:       140e3,
				MallocPerGB:      13e6,
				ManagedBase:      95e3,
				ManagedPerGB:     11e6,
				FreeBase:         110e3,
				FreePerGB:        8e6,
				ManagedFreePerGB: 3.5e6,
			},

			SystemOverheadNs:        2.1e8,
			OverheadJitterRel:       0.035,
			KernelLaunchNs:          7e3,
			ManagedCapacityFraction: 0.95,
			HostConsumeFraction:     1.0 / 16,
		},
	}
}

// a10080gSXM is the paper's GPU in its big-memory SXM form: the same
// SM array with the 80 GB HBM2e stack (more capacity, ~30% more
// bandwidth), so capacity-cliff experiments move while in-SM behaviour
// stays put.
func a10080gSXM() Profile {
	cfg := cuda.DefaultSystemConfig()
	cfg.GPU.HBMBandwidthGBs = 2039
	cfg.GPU.HBMCapacity = 80 << 30
	return Profile{
		Name:        "a100-80g-sxm",
		Description: "big-memory variant: A100-SXM4-80GB (HBM2e, 2039 GB/s), same PCIe 4.0 host",
		Config:      cfg,
	}
}

// graceHopperC2C models a Grace-Hopper-class superchip: a Hopper GPU
// whose host link is NVLink-C2C (~450 GB/s per direction, sub-us
// latency, hardware coherence) rather than PCIe. Fault service is far
// cheaper and migration efficiencies far higher, the regime in which
// published UVM conclusions invert.
func graceHopperC2C() Profile {
	return Profile{
		Name:        "grace-hopper-c2c",
		Description: "coherent superchip: H100-96GB over NVLink-C2C (450 GB/s), LPDDR5X host",
		Config: cuda.SystemConfig{
			GPU: gpu.Config{
				SMs:             132,
				CoresPerSM:      128,
				ClockGHz:        1.98,
				MaxThreadsPerSM: 2048,
				MaxBlocksPerSM:  32,
				MaxWarpsPerSM:   64,
				WarpSize:        32,

				HBMBandwidthGBs: 4000,
				HBMLatencyNs:    350,
				HBMCapacity:     96 << 30,

				UnifiedCacheKB: 256,
				MaxSharedKB:    228,
				MinL1KB:        28,

				SyncInflightBytes: 96,
				CacheLineBytes:    32,
			},
			PCIe: pcie.Config{
				BandwidthGBs:        450,
				LatencyNs:           600,
				BulkEfficiency:      0.95,
				PrefetchEfficiency:  0.92,
				FaultEfficiency:     0.85,
				WritebackEfficiency: 0.85,
			},
			Host: hostmem.Config{
				Chips:        8,
				ChipCapacity: 60 << 30,
				AmbientMin:   0.10,
				AmbientMax:   0.55,
				CrossPenalty: 0.8,
				CrossJitter:  0.40,
			},
			UVM: uvm.Config{
				ChunkBytes:              2 << 20,
				FaultBlockBytes:         64 << 10,
				FaultBatchLatencyNs:     8e3,
				PrefetchCallNs:          8e3,
				ResidentPrefetchNsPerGB: 5e5,
			},
			Alloc: devmem.CostModel{
				MallocBase:       110e3,
				MallocPerGB:      9e6,
				ManagedBase:      70e3,
				ManagedPerGB:     6e6,
				FreeBase:         90e3,
				FreePerGB:        6e6,
				ManagedFreePerGB: 2e6,
			},

			SystemOverheadNs:        1.6e8,
			OverheadJitterRel:       0.025,
			KernelLaunchNs:          5e3,
			ManagedCapacityFraction: 0.95,
			HostConsumeFraction:     1.0 / 16,
		},
	}
}
