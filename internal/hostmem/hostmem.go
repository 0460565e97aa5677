// Package hostmem models the host-side DRAM of the heterogeneous system:
// a set of DRAM chips with individual capacities and an ambient occupancy
// that varies run to run (other processes, the OS page cache, ...).
//
// The model exists to reproduce the paper's Figure 6 / Takeaway 1: when a
// benchmark's memory footprint approaches the capacity of a single DRAM
// chip (64 GB on the authors' EPYC host), allocations are likely to
// straddle a chip boundary, and host->device copies from a straddling
// buffer show large run-to-run bandwidth variance. Far below the chip
// size, buffers almost always land on one chip and copies are stable.
package hostmem

import (
	"fmt"
	"math/rand"
)

// Config describes the host memory system.
type Config struct {
	Chips        int   // number of DRAM chips
	ChipCapacity int64 // bytes per chip
	// AmbientMin/AmbientMax bound the fraction of each chip already in
	// use by the rest of the system; a fresh value is drawn per chip on
	// each Randomize call.
	AmbientMin float64
	AmbientMax float64
	// CrossPenalty is the fractional slowdown applied to the spilled
	// portion of a cross-chip copy (before jitter).
	CrossPenalty float64
	// CrossJitter bounds the multiplicative jitter (+/-) applied to the
	// penalty per copy, modelling interleaving and NUMA routing luck.
	CrossJitter float64
}

// DefaultConfig models the paper's host: 16 x 64 GB DDR4-3200.
func DefaultConfig() Config {
	return Config{
		Chips:        16,
		ChipCapacity: 64 << 30,
		AmbientMin:   0.30,
		AmbientMax:   0.92,
		CrossPenalty: 1.6,
		CrossJitter:  0.75,
	}
}

// PerChipBandwidthGBs is the sustained bandwidth of one host DRAM chip
// in GB/s (one DDR4-3200 channel ≈ 25.6 GB/s, as on the paper's EPYC
// host). It is a modelling constant rather than a Config field so that
// adding multi-GPU topologies does not perturb existing profile
// fingerprints or cache keys.
const PerChipBandwidthGBs = 25.6

// AggregateBandwidthBytesPerNs returns the host DRAM system's total
// sustained bandwidth in bytes/ns (numerically GB/s): chips times the
// per-chip channel rate. Point-to-point GPU interconnects (NVLink/C2C)
// remove the shared-uplink bottleneck, which promotes this pool to the
// binding shared resource for concurrent host<->device streams.
func (c Config) AggregateBandwidthBytesPerNs() float64 {
	return float64(c.Chips) * PerChipBandwidthGBs
}

// Segment is a portion of an allocation resident on one chip.
type Segment struct {
	Chip  int
	Bytes int64
}

// Placement describes where an allocation landed.
type Placement struct {
	Size     int64
	Segments []Segment
}

// Spilled reports how many bytes live outside the primary (first) chip.
func (p Placement) Spilled() int64 {
	var s int64
	for _, seg := range p.Segments[1:] {
		s += seg.Bytes
	}
	return s
}

// SpillFraction is Spilled()/Size, in [0,1]. Zero-size placements spill 0.
func (p Placement) SpillFraction() float64 {
	if p.Size == 0 {
		return 0
	}
	return float64(p.Spilled()) / float64(p.Size)
}

// entry is one allocation slot in the Memory arena. Slots are recycled
// LIFO through the free list; a slot's Segments backing array survives
// recycling, so a warmed-up Memory allocates nothing per Alloc/Free
// cycle.
type entry struct {
	active bool
	place  Placement
}

// Memory is the host DRAM allocator/model. It is not safe for concurrent
// use; the simulator is single-threaded.
type Memory struct {
	cfg       Config
	ambient   []int64 // bytes consumed by "the rest of the system" per chip
	used      []int64 // bytes consumed by our allocations per chip
	entries   []entry // allocation arena; id = slot index + 1
	freeIDs   []int32 // recycled slots, LIFO
	live      int
	order     []int // scratch for the first-touch placement walk
	preferred int   // NUMA-local chip that first-touch placement starts on
}

// New creates a Memory with zero ambient occupancy. Call Randomize before
// each measured run to model a fresh system state.
func New(cfg Config) *Memory {
	if cfg.Chips <= 0 || cfg.ChipCapacity <= 0 {
		panic("hostmem: config must have positive chips and capacity")
	}
	return &Memory{
		cfg:     cfg,
		ambient: make([]int64, cfg.Chips),
		used:    make([]int64, cfg.Chips),
		order:   make([]int, cfg.Chips),
	}
}

// Reset releases every allocation and zeroes the background occupancy,
// returning the Memory to its post-New state while keeping the arena
// warm. Call Randomize afterwards to draw the next run's system state.
func (m *Memory) Reset() {
	for i := range m.used {
		m.used[i] = 0
		m.ambient[i] = 0
	}
	m.freeIDs = m.freeIDs[:0]
	for i := len(m.entries) - 1; i >= 0; i-- {
		m.entries[i].active = false
		m.freeIDs = append(m.freeIDs, int32(i))
	}
	m.live = 0
	m.preferred = 0
}

// TotalCapacity returns the aggregate capacity across chips.
func (m *Memory) TotalCapacity() int64 {
	return int64(m.cfg.Chips) * m.cfg.ChipCapacity
}

// Randomize draws a fresh ambient occupancy for every chip and a fresh
// preferred (NUMA-local) chip for first-touch placement. Existing
// allocations are preserved; only the background state changes.
func (m *Memory) Randomize(rng *rand.Rand) {
	span := m.cfg.AmbientMax - m.cfg.AmbientMin
	for i := range m.ambient {
		frac := m.cfg.AmbientMin + rng.Float64()*span
		m.ambient[i] = int64(frac * float64(m.cfg.ChipCapacity))
	}
	m.preferred = rng.Intn(m.cfg.Chips)
}

// free returns the free bytes on chip i.
func (m *Memory) free(i int) int64 {
	f := m.cfg.ChipCapacity - m.ambient[i] - m.used[i]
	if f < 0 {
		f = 0
	}
	return f
}

// FreeBytes returns the total free bytes across all chips.
func (m *Memory) FreeBytes() int64 {
	var s int64
	for i := range m.ambient {
		s += m.free(i)
	}
	return s
}

// Alloc places size bytes with a first-touch NUMA policy: the preferred
// (local) chip fills first, and the remainder spills onto subsequent
// chips in order. This locality-first behaviour — rather than a globally
// balanced one — is what makes near-chip-capacity footprints straddle a
// boundary with high probability (Figure 6). It returns an id (for Free)
// and the placement, or an error when the host is out of memory.
func (m *Memory) Alloc(size int64) (int64, Placement, error) {
	if size <= 0 {
		return 0, Placement{}, fmt.Errorf("hostmem: invalid allocation size %d", size)
	}
	if size > m.FreeBytes() {
		return 0, Placement{}, fmt.Errorf("hostmem: out of memory: need %d, free %d", size, m.FreeBytes())
	}
	for i := range m.order {
		m.order[i] = (m.preferred + i) % m.cfg.Chips
	}
	var slot int
	if n := len(m.freeIDs); n > 0 {
		slot = int(m.freeIDs[n-1])
		m.freeIDs = m.freeIDs[:n-1]
	} else {
		m.entries = append(m.entries, entry{})
		slot = len(m.entries) - 1
	}
	e := &m.entries[slot]
	e.active = true
	e.place.Size = size
	e.place.Segments = e.place.Segments[:0]
	remaining := size
	for _, chip := range m.order {
		if remaining == 0 {
			break
		}
		take := m.free(chip)
		if take > remaining {
			take = remaining
		}
		if take == 0 {
			continue
		}
		m.used[chip] += take
		e.place.Segments = append(e.place.Segments, Segment{Chip: chip, Bytes: take})
		remaining -= take
	}
	if remaining != 0 {
		panic("hostmem: accounting error, free bytes changed during alloc")
	}
	m.live++
	return int64(slot) + 1, e.place, nil
}

// Free releases the allocation with the given id and recycles its slot.
// Freeing an unknown or already-freed id returns an error so double
// frees surface in tests. The returned Placement's Segments stay
// readable until the slot is reused by a later Alloc.
func (m *Memory) Free(id int64) error {
	slot := int(id) - 1
	if slot < 0 || slot >= len(m.entries) || !m.entries[slot].active {
		return fmt.Errorf("hostmem: free of unknown allocation %d", id)
	}
	e := &m.entries[slot]
	for _, seg := range e.place.Segments {
		m.used[seg.Chip] -= seg.Bytes
		if m.used[seg.Chip] < 0 {
			panic("hostmem: negative usage after free")
		}
	}
	e.active = false
	m.freeIDs = append(m.freeIDs, int32(slot))
	m.live--
	return nil
}

// CopyEfficiency returns the effective link efficiency (0, 1] for a bulk
// copy out of (or into) the placed buffer. Single-chip placements copy at
// full efficiency; the spilled fraction pays CrossPenalty modulated by a
// per-copy jitter drawn from rng. This is the mechanism behind the
// unstable Mega-input memcpy times of Figure 6.
func (m *Memory) CopyEfficiency(p Placement, rng *rand.Rand) float64 {
	sf := p.SpillFraction()
	if sf == 0 {
		return 1
	}
	jitter := 1 + m.cfg.CrossJitter*(2*rng.Float64()-1)
	if jitter < 0.05 {
		jitter = 0.05
	}
	slowdown := 1 + sf*m.cfg.CrossPenalty*jitter
	return 1 / slowdown
}

// LiveAllocations reports how many allocations are outstanding.
func (m *Memory) LiveAllocations() int { return m.live }
