// Package topo models multi-GPU system topologies: N devices, each
// with the profile's HBM/SM model, attached to the host by one of two
// interconnect shapes. Behind a PCIe switch, every GPU's DMA, fault and
// prefetch streams funnel through one shared uplink running at a single
// link's rate; with NVLink/C2C point-to-point links, each GPU owns its
// host port and the binding shared resource moves up to the host DRAM
// chips. Either way the shared stage is a sim.SharedLink with max-min
// fair arbitration, so concurrent jobs contend for real bandwidth
// instead of each assuming an exclusive link.
package topo

import (
	"fmt"
	"slices"
	"strings"

	"uvmasim/internal/cuda"
	"uvmasim/internal/nearest"
	"uvmasim/internal/sim"
)

// Kind names an interconnect shape.
type Kind string

const (
	// PCIeSwitch fans every GPU out of one host port: the shared uplink
	// runs at a single PCIe link's rate (cfg.PCIe.UplinkBytesPerNs).
	PCIeSwitch Kind = "pcie-switch"
	// NVLink gives each GPU a dedicated point-to-point host link; the
	// shared bottleneck becomes the host DRAM pool
	// (cfg.Host.AggregateBandwidthBytesPerNs). The same shape models
	// C2C on Grace-Hopper profiles.
	NVLink Kind = "nvlink"
)

// Kinds lists the recognized topology names.
var Kinds = []string{string(PCIeSwitch), string(NVLink)}

// ParseKind resolves a topology name, failing with a nearest-name hint
// on a typo (the CLI/serve validation contract).
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if s == k {
			return Kind(s), nil
		}
	}
	return "", fmt.Errorf("unknown topology %q%s", s, nearest.Hint(s, Kinds, 2))
}

// ParseKindList resolves a comma-separated topology list, each kind at
// most once.
func ParseKindList(csv string) ([]Kind, error) {
	var out []Kind
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := ParseKind(part)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, k) {
			return nil, fmt.Errorf("topology %q listed twice", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topology list names no topologies")
	}
	return out, nil
}

// Topology is an instantiated multi-GPU system on one engine. Each GPU
// keeps the profile's per-device HBM capacity and SM model (device
// phases replay measured single-GPU durations); what the topology adds
// is the shared transfer fabric between host memory and the devices.
type Topology struct {
	Kind Kind
	GPUs int

	// shared is the stage every device's transfers cross: the
	// PCIe-switch uplink, or under NVLink the host DRAM bandwidth pool
	// (dedicated device links do not contend with each other, so host
	// chips become the shared stage).
	shared *sim.SharedLink
	// deviceLink is each GPU's dedicated link rate in bytes/ns, the cap
	// any single device's stream cannot exceed.
	deviceLink float64
}

// New builds a topology of the given shape and device count on eng,
// deriving link rates from the profile's system configuration.
func New(eng *sim.Engine, cfg cuda.SystemConfig, kind Kind, gpus int) (*Topology, error) {
	if gpus < 1 {
		return nil, fmt.Errorf("topo: device count must be positive, got %d", gpus)
	}
	t := &Topology{Kind: kind, GPUs: gpus, deviceLink: cfg.PCIe.BytesPerNs()}
	switch kind {
	case PCIeSwitch:
		t.shared = sim.NewSharedLink(eng, cfg.PCIe.UplinkBytesPerNs())
	case NVLink:
		t.shared = sim.NewSharedLink(eng, cfg.Host.AggregateBandwidthBytesPerNs())
	default:
		return nil, fmt.Errorf("topo: unknown kind %q", kind)
	}
	return t, nil
}

// Transfer starts a host->device stream of the given size to one GPU,
// capped at rateCap (<=0 means the device link rate) and at the device
// link rate. In both shapes every device's stream crosses the one
// shared stage, so the stream's GPU does not enter. done fires with the
// completion time.
func (t *Topology) Transfer(bytes, rateCap float64, done func(end float64)) {
	if rateCap <= 0 || rateCap > t.deviceLink {
		rateCap = t.deviceLink
	}
	t.shared.Start(bytes, rateCap, done)
}
