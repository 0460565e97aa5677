// Package pcie models the host<->device interconnect: one DMA link per
// direction with a fixed descriptor latency and transfer-mode-dependent
// efficiencies. Bulk cudaMemcpy moves near line rate; fault-granularity
// UVM migration pays per-block overheads; 2 MB prefetch streams land in
// between. These efficiency tiers are what make the standard/uvm/
// uvm_prefetch transfer-time comparison of §4.1 come out the way it does.
package pcie

import (
	"uvmasim/internal/sim"
	"uvmasim/internal/trace"
)

// Config describes the interconnect. Defaults follow PCIe 4.0 x16 as on
// the paper's A100 host.
type Config struct {
	BandwidthGBs float64 // peak per direction
	LatencyNs    float64 // DMA descriptor setup per transfer

	BulkEfficiency      float64 // cudaMemcpy of large contiguous buffers
	PrefetchEfficiency  float64 // cudaMemPrefetchAsync 2 MB streams
	FaultEfficiency     float64 // on-demand UVM migration (64 KB blocks)
	WritebackEfficiency float64 // device->host dirty-page writeback
}

// DefaultConfig returns the PCIe 4.0 x16 model. FaultEfficiency assumes
// the UVM driver's density-growing prefetcher is coalescing faults on a
// favorable (sequential) pattern; callers derate it with a pattern factor
// for scattered demand.
func DefaultConfig() Config {
	return Config{
		BandwidthGBs:        26,
		LatencyNs:           1500,
		BulkEfficiency:      0.92,
		PrefetchEfficiency:  0.84,
		FaultEfficiency:     0.72,
		WritebackEfficiency: 0.66,
	}
}

// BytesPerNs returns the peak per-direction link bandwidth in bytes/ns
// (numerically equal to GB/s: 1e9 bytes / 1e9 ns).
func (c Config) BytesPerNs() float64 { return c.BandwidthGBs }

// UplinkBytesPerNs returns the capacity of a shared PCIe-switch uplink
// in bytes/ns. A switch fans several devices out of one host port, so
// the uplink runs at a single link's rate no matter how many GPUs sit
// behind it — the contention regime the multi-GPU topologies model.
func (c Config) UplinkBytesPerNs() float64 { return c.BytesPerNs() }

// ZeroCopyEfficiency is the link efficiency of SM-issued in-place
// accesses to host-coherent memory (the uvm_zerocopy mode): warp-
// coalesced line bursts achieve about what the fault path's driver-
// coalesced 64 KB blocks do, so coherent links (high FaultEfficiency)
// are exactly the machines where zero-copy shines.
func (c Config) ZeroCopyEfficiency() float64 { return c.FaultEfficiency }

// SMCopyEfficiency is the link efficiency of SM-driven bulk staging
// copies (the uvm_smcopy mode): wide unrolled SM copies saturate the
// link nearly as well as the copy engines, minus a small issue overhead
// (nvbandwidth's SM-copy vs CE-copy gap).
func (c Config) SMCopyEfficiency() float64 { return c.BulkEfficiency * 0.95 }

// Bus bundles the two DMA directions and the tracer that records their
// transfers.
type Bus struct {
	cfg Config
	tr  *trace.Tracer
	H2D *sim.Link
	D2H *sim.Link
}

// New creates an idle Bus with tracing disabled.
func New(cfg Config) *Bus {
	if cfg.BandwidthGBs <= 0 {
		panic("pcie: bandwidth must be positive")
	}
	return &Bus{
		cfg: cfg,
		H2D: sim.NewLink(cfg.BytesPerNs()),
		D2H: sim.NewLink(cfg.BytesPerNs()),
	}
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// SetTracer attaches an observability tracer to the bus; nil (the
// default) disables recording. cuda.Context.SetTracer attaches it.
func (b *Bus) SetTracer(tr *trace.Tracer) { b.tr = tr }

// Tracer returns the attached tracer (nil when tracing is disabled).
// The UVM manager records its fault activity through it.
func (b *Bus) Tracer() *trace.Tracer { return b.tr }

// CopyH2DBulk reserves a bulk host->device copy starting no earlier than
// t. hostEff (0,1] further derates the copy for host-side placement
// effects (cross-chip buffers, Figure 6). It returns the completion time.
func (b *Bus) CopyH2DBulk(t float64, bytes int64, hostEff float64) float64 {
	start, end := b.H2D.ReserveAt(t, float64(bytes), b.cfg.LatencyNs, b.cfg.BulkEfficiency*hostEff)
	b.tr.Span(trace.PCIeH2D, "memcpyH2D", start, end, trace.Args{Bytes: bytes})
	return end
}

// CopyD2HBulk reserves a bulk device->host copy starting no earlier than
// t and returns the completion time.
func (b *Bus) CopyD2HBulk(t float64, bytes int64, hostEff float64) float64 {
	start, end := b.D2H.ReserveAt(t, float64(bytes), b.cfg.LatencyNs, b.cfg.BulkEfficiency*hostEff)
	b.tr.Span(trace.PCIeD2H, "memcpyD2H", start, end, trace.Args{Bytes: bytes})
	return end
}

// MigrateOnDemand reserves a fault-granularity host->device migration and
// returns the completion time. patternEff (0,1] derates the configured
// fault efficiency for demand orders the driver prefetcher cannot
// coalesce (irregular/random kernels). No descriptor latency is charged
// here — the UVM fault-batch latency covers it.
func (b *Bus) MigrateOnDemand(t float64, bytes int64, patternEff float64) float64 {
	ln := b.MigrateLane(bytes, patternEff)
	return ln.At(t)
}

// PrefetchChunk reserves a prefetch-stream host->device transfer and
// returns the completion time. The span is recorded on the prefetch
// track even though it occupies the H2D link, mirroring how profiler
// timelines show the prefetch stream as its own row.
func (b *Bus) PrefetchChunk(t float64, bytes int64) float64 {
	ln := b.PrefetchLane(bytes)
	return ln.At(t)
}

// Writeback reserves a device->host dirty-page writeback and returns the
// completion time.
func (b *Bus) Writeback(t float64, bytes int64) float64 {
	ln := b.WritebackLane(bytes)
	return ln.At(t)
}

// A Lane is one kind of chunk transfer — a fault migration, a prefetch
// or a writeback of a fixed size — with its link time computed once.
// MigrateOnDemand, PrefetchChunk and Writeback each make a lane for one
// transfer; a caller reserving a run of same-size transfers makes one
// lane for the whole run and calls At per transfer.
type Lane struct {
	link  *sim.Link
	tr    *trace.Tracer
	track trace.Track
	name  string
	bytes int64
	dur   float64
}

func (b *Bus) lane(l *sim.Link, track trace.Track, name string, bytes int64, eff float64) Lane {
	return Lane{link: l, tr: b.tr, track: track, name: name, bytes: bytes,
		dur: l.TransferTime(float64(bytes), 0, eff)}
}

// MigrateLane is the lane of a fault migration of bytes at patternEff:
// the fault efficiency derated by the pattern, clamped to [0.01, 1].
func (b *Bus) MigrateLane(bytes int64, patternEff float64) Lane {
	eff := b.cfg.FaultEfficiency * patternEff
	if eff <= 0 {
		eff = 0.01
	}
	if eff > 1 {
		eff = 1
	}
	return b.lane(b.H2D, trace.PCIeH2D, "migrate", bytes, eff)
}

// PrefetchLane is the lane of a prefetch of bytes.
func (b *Bus) PrefetchLane(bytes int64) Lane {
	return b.lane(b.H2D, trace.Prefetch, "prefetch", bytes, b.cfg.PrefetchEfficiency)
}

// WritebackLane is the lane of a writeback of bytes.
func (b *Bus) WritebackLane(bytes int64) Lane {
	return b.lane(b.D2H, trace.PCIeD2H, "writeback", bytes, b.cfg.WritebackEfficiency)
}

// At reserves the lane's transfer starting no earlier than t and returns
// its completion time.
func (ln *Lane) At(t float64) float64 {
	start, end := ln.link.Reserve(t, ln.dur)
	if ln.tr != nil {
		ln.tr.Span(ln.track, ln.name, start, end, trace.Args{Bytes: ln.bytes})
	}
	return end
}

// PrefetchRun reserves len(ends) > 0 back-to-back prefetch transfers of
// bytes each, the first no earlier than t, writes each completion time
// into ends and returns the last one. It equals a PrefetchChunk loop
// that starts each chunk at the previous chunk's completion, bit for
// bit, spans included: one span per chunk on the prefetch track.
func (b *Bus) PrefetchRun(t float64, bytes int64, ends []float64) float64 {
	start := b.H2D.ReserveRun(t, b.H2D.TransferTime(float64(bytes), 0, b.cfg.PrefetchEfficiency), ends)
	if tr := b.tr; tr != nil {
		for _, end := range ends {
			tr.Span(trace.Prefetch, "prefetch", start, end, trace.Args{Bytes: bytes})
			start = end
		}
	}
	return ends[len(ends)-1]
}

// BusyTotal returns the combined busy time of both directions.
func (b *Bus) BusyTotal() float64 {
	return b.H2D.BusyTotal() + b.D2H.BusyTotal()
}

// OpenWindow starts summing both directions' busy time from t on, under
// sim.Link.OpenWindow's contract.
func (b *Bus) OpenWindow(t float64) {
	b.H2D.OpenWindow(t)
	b.D2H.OpenWindow(t)
}

// CloseWindow ends the window OpenWindow opened at t and returns the
// combined busy time of both directions inside it.
func (b *Bus) CloseWindow(t float64) float64 {
	return b.H2D.CloseWindow(t) + b.D2H.CloseWindow(t)
}

// Reset clears both links' queues and accounting.
func (b *Bus) Reset() {
	b.H2D.Reset()
	b.D2H.Reset()
}
