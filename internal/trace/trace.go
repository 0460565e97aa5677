// Package trace is the simulator's observability layer: a
// zero-overhead-when-disabled event recorder that the transfer models
// (pcie, uvm), the CUDA runtime and the experiment harness thread their
// activity through. It records typed spans and instant events on a
// small set of named tracks — the same tracks a CUPTI/Nsight timeline of
// the paper's testbed shows — using virtual-time timestamps, so a trace
// is a deterministic function of the run's seed.
//
// Recorded traces export as Chrome trace-event JSON (see WriteChromeTrace)
// loadable in Perfetto or chrome://tracing, and aggregate into a Metrics
// registry (per-track busy time, byte volumes, named counters) that can be
// cross-checked against cuda.Breakdown.
//
// A nil *Tracer is the disabled state: every method is nil-receiver-safe
// and returns immediately, so instrumented code calls the tracer
// unconditionally and pays only a nil check when tracing is off.
package trace

import "fmt"

// Track identifies one timeline row. The set mirrors the hardware queues
// the paper's profiler timelines show: the two PCIe DMA directions, the
// GPU compute queue, the UVM fault path, the prefetch stream and the
// host-side CUDA API thread.
type Track uint8

const (
	// Host is the CPU thread issuing CUDA API calls (alloc, launch,
	// prefetch calls, synchronization waits).
	Host Track = iota
	// PCIeH2D carries bulk cudaMemcpy H2D and on-demand UVM migration.
	PCIeH2D
	// PCIeD2H carries bulk cudaMemcpy D2H and dirty-page writeback.
	PCIeD2H
	// Kernel is the GPU compute queue (one span per kernel execution).
	Kernel
	// UVMFaults records fault batches, fault waits and evictions as
	// instant events.
	UVMFaults
	// Prefetch is the cudaMemPrefetchAsync transfer stream (physically
	// the H2D link, shown separately as in the paper's Figure 3).
	Prefetch

	numTracks
)

// NumTracks is the number of defined tracks.
const NumTracks = int(numTracks)

// String returns the track's display name (the Perfetto thread name).
func (t Track) String() string {
	switch t {
	case Host:
		return "host"
	case PCIeH2D:
		return "pcie-h2d"
	case PCIeD2H:
		return "pcie-d2h"
	case Kernel:
		return "gpu-kernel"
	case UVMFaults:
		return "uvm-faults"
	case Prefetch:
		return "prefetch-stream"
	}
	return fmt.Sprintf("track(%d)", int(t))
}

// Args is the optional typed payload of an event. The zero value means
// "no arguments"; fields at their zero value are omitted from the export
// (Chunk carries an explicit presence flag because index 0 is valid).
type Args struct {
	// Bytes is the data volume the event moved or allocated.
	Bytes int64
	// Chunk is the UVM migration-granule index, valid when HasChunk.
	Chunk    int
	HasChunk bool
	// Batch is the fault-batch size in fault blocks.
	Batch float64
	// Setup labels the data-transfer configuration of the run.
	Setup string
	// Detail is a free-form annotation (occupancy, placement, ...).
	Detail string
}

// ChunkArgs returns Args carrying a chunk index and byte count.
func ChunkArgs(idx int, bytes int64) Args {
	return Args{Bytes: bytes, Chunk: idx, HasChunk: true}
}

// Event is one recorded timeline entry: a span (Dur > 0 or Instant
// false) or an instant marker.
type Event struct {
	Track   Track
	Name    string
	Start   float64 // virtual ns
	Dur     float64 // span length in ns; 0 for instants
	Instant bool
	Args    Args
}

// End returns the span's end time (Start for instants).
func (e Event) End() float64 { return e.Start + e.Dur }

// Tracer records events and counters for one simulated run. Create one
// with New and attach it once, with cuda.Context.SetTracer, before the
// run: the context records the host API, kernels and gpu.* launch
// counts, and hands the tracer to the PCIe bus, through which the UVM
// manager records transfers and faults. A nil Tracer disables all
// recording.
//
// A Tracer is not safe for concurrent use — like the single-threaded
// simulation it observes, each traced run owns its Tracer. The parallel
// experiment executor binds one Tracer per cell iteration.
type Tracer struct {
	events   []Event
	counters map[string]float64
}

// New returns an empty, enabled Tracer.
func New() *Tracer {
	return &Tracer{counters: make(map[string]float64)}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Span records the activity [start, end) on a track. Zero- and
// negative-length spans are ignored; a nil tracer records nothing.
func (t *Tracer) Span(track Track, name string, start, end float64, args Args) {
	if t == nil || end <= start {
		return
	}
	t.events = append(t.events, Event{Track: track, Name: name, Start: start, Dur: end - start, Args: args})
}

// Instant records a point event at time at on a track. A nil tracer
// records nothing.
func (t *Tracer) Instant(track Track, name string, at float64, args Args) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Track: track, Name: name, Start: at, Instant: true, Args: args})
}

// Count adds delta to the named aggregate counter. Counters have no
// timestamps; they feed the Metrics registry next to span-derived busy
// time. A nil tracer records nothing.
func (t *Tracer) Count(name string, delta float64) {
	if t == nil {
		return
	}
	t.counters[name] += delta
}

// Events returns the recorded events in insertion order (simulation
// call order, which is deterministic). The slice is shared; treat it as
// read-only.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}
