// Package uvm models Nvidia's Unified Virtual Memory driver as the paper
// exercises it: managed regions whose pages materialize on the device on
// first GPU touch (fault batches + on-demand migration over PCIe),
// explicit cudaMemPrefetchAsync streaming, dirty writeback when the host
// touches results, and LRU chunk eviction under device-memory pressure.
//
// Residency is tracked at the driver's migration granule (2 MB chunks);
// faults are counted at the 64 KB fault-block granule within a chunk.
// Timing is expressed through reservations on the pcie.Bus links, so UVM
// traffic naturally contends with (and overlaps) everything else on the
// interconnect — the mechanism behind the U1 pipeline stage of Figure 1.
//
// Eviction bookkeeping is constant-time: a global LRU ring plus
// per-region resident counters (see lru.go) replace the full residency
// scan the evictor used to pay per victim, and a dirty bitmap (dirty.go)
// marks 64 chunks per word and lets the writeback paths skip clean words
// whole. The ring lives in one flat arena of 8-byte int32 link pairs
// owned by the Manager, one per chunk, grown by doubling. Nodes carry no
// owner: each region owns a contiguous slot range, so the victim's region
// is a binary search over region bases and Unregister walks the region's
// own slots; there is no per-region resident list. Regions are recycled
// through a free list across Register/Unregister cycles, so a warmed-up
// manager simulates without allocating or writing heap pointers. The
// pre-optimization scan evictor is retained as a reference
// implementation (refscan.go) and pinned equivalent by a differential
// test. All timing is bit-for-bit identical to the scan era: same victim
// order, same writeback reservations, same stats, same trace instants.
//
// Work is done per run, not per chunk, where a run is a maximal stretch
// of consecutive chunks of one region in the same state:
//
//   - PrefetchRegion streams a run of non-resident full chunks that fits
//     the device as one chain reservation on the link, one splice at the
//     ring's MRU end and one counter update.
//   - DemandRange moves a run of resident chunks to the MRU end with one
//     cut and splice per stretch of already-consecutive links (nothing at
//     all for the run a prefetch just left at the tail); a run of
//     non-resident full chunks reserves one migration per chunk, each
//     after the compute cursor, but joins the ring and moves the counters
//     once.
//   - MarkDeviceWritten links each non-resident run with one splice.
//   - Unregister and Reset cut a region whose resident chunks are one run
//     in slot order out of the ring in O(1), then clear its chunk state
//     with straight stores.
//
// Runs that need room work the same way in all three loops: a run of
// non-resident full chunks on a full device takes one victim per chunk
// from the ring head's stretch (lru.go), and the victims leave the ring
// with one cut and the counters once per segment. The link durations are
// computed once per run as well (pcie.Lane over sim.Link.Reserve).
//
// Per chunk stay: the float chain of an evicting run (a dirty victim's
// writeback reservation, the chunk's migrate or prefetch reservation, its
// arrival time and the compute cursor) and its trace events and onEvict
// calls; stamps; short tail chunks and short tail victims, which go
// through makeRoom; the bookkeeping cost of prefetching resident chunks;
// DemandChunk's shuffled irregular demand; and every path in reference
// mode (SetReferenceEviction), which stays the oracle the run paths are
// tested against, with and without a tracer.
package uvm

import (
	"fmt"
	"math"
	"math/bits"

	"uvmasim/internal/counters"
	"uvmasim/internal/pcie"
	"uvmasim/internal/trace"
)

// Config tunes the driver model.
type Config struct {
	ChunkBytes          int64   // migration granule
	FaultBlockBytes     int64   // fault granule (faults per chunk = chunk/block)
	FaultBatchLatencyNs float64 // service latency of one fault batch (GPU stall)
	PrefetchCallNs      float64 // driver overhead per cudaMemPrefetchAsync call
	// ResidentPrefetchNsPerGB prices a cudaMemPrefetchAsync over
	// already-resident pages: the driver still walks the range's page
	// tables (CPU/stream time, no data movement) — the overhead that
	// makes per-kernel prefetching hurt nw (§4.1.2).
	ResidentPrefetchNsPerGB float64
}

// DefaultConfig follows published UVM measurements on Volta/Ampere
// (fault service ~20-45 us per batch, 2 MB prefetch granularity).
func DefaultConfig() Config {
	return Config{
		ChunkBytes:              2 << 20,
		FaultBlockBytes:         64 << 10,
		FaultBatchLatencyNs:     25e3,
		PrefetchCallNs:          12e3,
		ResidentPrefetchNsPerGB: 1e6,
	}
}

// Region is one cudaMallocManaged allocation. Region objects are owned
// by the Manager and recycled: after Unregister the object may be handed
// out again by a later Register, so callers must not use a region past
// its Unregister.
type Region struct {
	id   int64
	Size int64

	arrival []float64 // per-chunk availability time; +Inf = not resident
	lastUse []int64   // LRU stamps
	dirty   []uint64  // one bit per chunk written by the device since its last writeback

	// Indexed bookkeeping (see lru.go and dirty.go). base and nodeCap
	// are fixed at creation: the region permanently owns arena slots
	// [base, base+nodeCap) and is recycled only for sizes that fit.
	base          int32 // first owned slot in the Manager node arena
	nodeCap       int32 // owned arena slots (maximum chunk count)
	residentCount int
	residentBytes int64
	dirtyCount    int // set bits of dirty
}

// NumChunks returns the number of migration granules in the region.
func (r *Region) NumChunks() int { return len(r.arrival) }

// Resident reports whether chunk idx is device-resident (now or at a
// scheduled arrival).
func (r *Region) Resident(idx int) bool { return !math.IsInf(r.arrival[idx], 1) }

// ResidentChunks counts chunks with device residency. O(1).
func (r *Region) ResidentChunks() int { return r.residentCount }

// ResidentBytes returns the region's device-resident byte count. O(1).
func (r *Region) ResidentBytes() int64 { return r.residentBytes }

// DirtyChunks counts chunks written by the device since their last
// writeback. O(1).
func (r *Region) DirtyChunks() int { return r.dirtyCount }

// Manager is the UVM driver state for one device.
type Manager struct {
	cfg      Config
	bus      *pcie.Bus
	capacity int64 // device bytes available to managed memory

	regions  map[int64]*Region
	nextID   int64
	resident int64 // managed bytes currently on-device
	stamp    int64 // LRU clock

	// Flat arenas. nodes holds every chunk's LRU ring links as int32
	// slot indices (slot 0 is the ring sentinel); regs holds every Region
	// ever created in creation order, so bases ascend and victim lookup
	// resolves a slot's owner by binary search without a pointer in the
	// node. free lists unregistered regions available for recycling
	// (best-fit by chunk capacity, so the choice is independent of
	// free-list order).
	nodes     []chunkNode
	regs      []*Region
	free      []*Region
	scanEvict bool // reference mode: scan evictor, per-chunk paths only
	// onEvict, when non-nil, observes every eviction (region, chunk,
	// eviction-complete time). Differential tests use it to record and
	// compare victim order between the two evictors.
	onEvict func(r *Region, idx int, ready float64)

	Stats *counters.UVMStats
}

// NewManager creates a Manager backed by bus with the given device
// capacity budget for managed memory.
func NewManager(cfg Config, bus *pcie.Bus, capacity int64, stats *counters.UVMStats) *Manager {
	if cfg.ChunkBytes <= 0 || cfg.FaultBlockBytes <= 0 || cfg.FaultBlockBytes > cfg.ChunkBytes {
		panic("uvm: invalid granule configuration")
	}
	if stats == nil {
		stats = &counters.UVMStats{}
	}
	m := &Manager{
		cfg:      cfg,
		bus:      bus,
		capacity: capacity,
		regions:  make(map[int64]*Region),
		Stats:    stats,
	}
	m.initLRU()
	return m
}

// ResidentBytes returns managed bytes currently device-resident.
func (m *Manager) ResidentBytes() int64 { return m.resident }

// Register creates a managed region of size bytes. Pages start
// host-resident (first-touch on device will fault them over). The
// returned Region may be a recycled object whose previous life ended
// with Unregister; its observable state is identical to a fresh one.
func (m *Manager) Register(size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("uvm: invalid managed size %d", size)
	}
	n := int((size + m.cfg.ChunkBytes - 1) / m.cfg.ChunkBytes)
	r := m.takeRegion(n)
	r.Size = size
	m.nextID++
	r.id = m.nextID
	m.regions[r.id] = r
	return r, nil
}

// takeRegion returns a clean n-chunk region: the best-fitting free
// region when one is large enough (best-fit keeps the choice — and
// therefore the steady-state allocation count — independent of the
// free-list order), otherwise a newly grown one. Free regions hold the
// clean-state invariant (nothing resident, nothing dirty, every owned
// node unlinked) over their whole node capacity, so slicing the
// per-chunk arrays to n is all the reinitialization reuse needs.
func (m *Manager) takeRegion(n int) *Region {
	best := -1
	for i, fr := range m.free {
		if int(fr.nodeCap) < n {
			continue
		}
		if best < 0 || fr.nodeCap < m.free[best].nodeCap {
			best = i
		}
	}
	if best >= 0 {
		r := m.free[best]
		m.free = append(m.free[:best], m.free[best+1:]...)
		r.arrival = r.arrival[:n]
		r.lastUse = r.lastUse[:n]
		r.dirty = r.dirty[:dirtyWords(n)]
		return r
	}
	r := &Region{
		base:    m.newNodeRange(n),
		nodeCap: int32(n),
		arrival: make([]float64, n),
		lastUse: make([]int64, n),
		dirty:   make([]uint64, dirtyWords(n)),
	}
	for i := range r.arrival {
		r.arrival[i] = math.Inf(1)
	}
	m.regs = append(m.regs, r)
	return r
}

// Unregister drops the region, releasing its device residency, and
// recycles the object onto the free list. It walks the region's slots
// only up to its last resident chunk, and its dirty bitmap.
func (m *Manager) Unregister(r *Region) error {
	if reg, ok := m.regions[r.id]; !ok || reg != r {
		return fmt.Errorf("uvm: unregister of unknown region %d", r.id)
	}
	m.releaseAll(r)
	m.recycle(r)
	delete(m.regions, r.id)
	return nil
}

// releaseAll unlinks every resident chunk of r from the global ring and
// clears the arrivals. When the resident chunks are one run linked in
// slot order it cuts them out with one splice (cutResident); otherwise,
// and in reference mode, it walks r's own slot range in chunk order and
// stops once residentCount chunks are unlinked. Unlinking in any order
// leaves the rest of the ring in the same order.
func (m *Manager) releaseAll(r *Region) {
	if r.residentCount > 0 && (m.scanEvict || !m.cutResident(r)) {
		left := r.residentCount
		for i := 0; left > 0; i++ {
			if s := r.base + int32(i); m.nodes[s].next >= 0 {
				m.unlink(s)
				r.arrival[i] = math.Inf(1)
				left--
			}
		}
	}
	m.resident -= r.residentBytes
	r.residentBytes = 0
	r.residentCount = 0
}

// recycle scrubs r back to the clean state (the dirty bitmap cleared,
// one store per 64 chunks) and parks it on the free list.
func (m *Manager) recycle(r *Region) {
	clear(r.dirty)
	r.dirtyCount = 0
	m.free = append(m.free, r)
}

// Reset force-unregisters every remaining region and restarts the id and
// stamp clocks, returning the manager to its post-NewManager state while
// keeping every arena warm for reuse. Configuration (capacity, eviction
// mode, observers, the Stats sink) is preserved; the caller owns
// re-zeroing Stats. Recycling is deterministic and recycled regions are
// indistinguishable from fresh ones, so a reset manager reproduces a
// fresh manager's simulation bit for bit.
func (m *Manager) Reset() {
	for id, r := range m.regions {
		m.releaseAll(r)
		m.recycle(r)
		delete(m.regions, id)
	}
	m.nextID = 0
	m.resident = 0
	m.stamp = 0
}

// chunkSize returns the byte size of chunk idx (the tail chunk may be
// short).
func (m *Manager) chunkSize(r *Region, idx int) int64 {
	if idx == r.NumChunks()-1 {
		if rem := r.Size % m.cfg.ChunkBytes; rem != 0 {
			return rem
		}
	}
	return m.cfg.ChunkBytes
}

// makeRoom evicts least-recently-used resident chunks until need bytes
// fit. Dirty victims are written back over PCIe at time t; eviction
// completion can push the effective availability time forward, which the
// caller receives. Victim selection is O(1) per eviction (ring head) and
// the whole call is O(1) when the need already fits.
func (m *Manager) makeRoom(t float64, need int64) float64 {
	ready := t
	for m.resident+need > m.capacity {
		victim, vIdx := m.victim()
		if victim == nil {
			panic(fmt.Sprintf("uvm: cannot evict to fit %d bytes in capacity %d", need, m.capacity))
		}
		size := m.chunkSize(victim, vIdx)
		if victim.cleanChunk(vIdx) {
			ready = m.bus.Writeback(ready, size)
			m.Stats.WritebackBytes += float64(size)
		}
		m.release(victim, vIdx, size)
		m.Stats.EvictedBytes += float64(size)
		m.Stats.Evictions++
		if tr := m.bus.Tracer(); tr != nil || m.onEvict != nil {
			m.evicted(victim, vIdx, size, ready, tr)
		}
	}
	return ready
}

// evicted records the eviction of chunk idx of v (size bytes), complete
// at ready: the evict instant and its count, and the onEvict observer.
func (m *Manager) evicted(v *Region, idx int, size int64, ready float64, tr *trace.Tracer) {
	if tr != nil {
		tr.Instant(trace.UVMFaults, "evict", ready, trace.ChunkArgs(idx, size))
		tr.Count("uvm.evicted_bytes", float64(size))
	}
	if m.onEvict != nil {
		m.onEvict(v, idx, ready)
	}
}

// DemandChunk makes chunk idx available for a GPU access happening at
// time t and returns the time the access can proceed. patternEff (0,1]
// derates migration bandwidth for demand orders the driver prefetcher
// cannot coalesce. coalesced marks a ramped sequential fault stream, in
// which the driver's density prefetcher amortizes one fault batch over
// many migration granules.
//
//   - Resident and arrived: proceed at t.
//   - In flight (prefetch racing demand): a fault is still raised; the
//     access proceeds at max(arrival, t+batch latency).
//   - Not resident: fault batch + on-demand migration.
func (m *Manager) DemandChunk(r *Region, idx int, t float64, patternEff float64, coalesced bool) float64 {
	m.touch(r, idx)
	if r.Resident(idx) {
		return m.awaitResident(r, idx, t, m.bus.Tracer())
	}
	size := m.chunkSize(r, idx)
	ready := m.makeRoom(t, size)
	blocks := float64((size + m.cfg.FaultBlockBytes - 1) / m.cfg.FaultBlockBytes)
	latency := m.cfg.FaultBatchLatencyNs
	if coalesced {
		latency /= 8
		blocks /= 8
	}
	m.Stats.PageFaults += blocks
	m.Stats.FaultBatches++
	m.Stats.MigratedBytes += float64(size)
	traceFaultBatch(m.bus.Tracer(), idx, size, blocks, ready)
	end := m.bus.MigrateOnDemand(ready+latency, size, patternEff)
	m.hold(r, idx, end, size)
	return end
}

// traceFaultBatch records a fault batch of blocks fault blocks that
// migrates chunk idx (size bytes) at time at.
func traceFaultBatch(tr *trace.Tracer, idx int, size int64, blocks, at float64) {
	if tr == nil {
		return
	}
	args := trace.ChunkArgs(idx, size)
	args.Batch = blocks
	tr.Instant(trace.UVMFaults, "fault_batch", at, args)
	tr.Count("uvm.fault_batches", 1)
	tr.Count("uvm.migrated_bytes", float64(size))
}

// awaitResident is the demand step of resident chunk idx at time t: an
// access that finds the chunk still in flight raises one fault and waits
// for max(arrival, t+batch latency). It returns the time the access can
// proceed.
func (m *Manager) awaitResident(r *Region, idx int, t float64, tr *trace.Tracer) float64 {
	arr := r.arrival[idx]
	if arr <= t {
		return t
	}
	m.Stats.PageFaults++
	m.Stats.FaultBatches++
	wait := t + m.cfg.FaultBatchLatencyNs
	if arr > wait {
		wait = arr
	}
	if tr != nil {
		// The access raced an in-flight prefetch: one fault, no
		// migration traffic.
		tr.Instant(trace.UVMFaults, "fault_wait", t, trace.ChunkArgs(idx, 0))
		tr.Count("uvm.fault_batches", 1)
	}
	return wait
}

// DemandRange walks chunks [lo, hi) of r as one coalesced sequential
// demand stream: per chunk it performs exactly what
// DemandChunk(r, i, cursor, 1, true) does, then advances the compute
// cursor by the chunk's payload bytes × computePerByte, starting from
// cursor = t. The per-chunk float arithmetic and trace instants are
// identical to the equivalent caller-side DemandChunk loop — goldens and
// traces observe the same bytes — while ring and counter work is done
// per run (see the package comment). It returns the compute cursor
// after the last chunk.
func (m *Manager) DemandRange(r *Region, lo, hi int, t, computePerByte float64) float64 {
	tr := m.bus.Tracer()
	full := m.cfg.ChunkBytes
	fullBlocks := float64((full+m.cfg.FaultBlockBytes-1)/m.cfg.FaultBlockBytes) / 8
	latency := m.cfg.FaultBatchLatencyNs / 8
	cursor := t
	for i := lo; i < hi; {
		if !m.scanEvict && r.Resident(i) {
			j := i + 1
			for j < hi && r.Resident(j) {
				j++
			}
			m.touchRun(r, i, j)
			for ; i < j; i++ {
				cursor = m.awaitResident(r, i, cursor, tr) + float64(m.chunkSize(r, i))*computePerByte
			}
			continue
		}
		if j, st := m.segment(r, i, hi); j > i {
			mig := m.bus.MigrateLane(full, 1)
			for k := i; k < j; k++ {
				ready := cursor
				if st.v != nil {
					ready = m.evictAt(&st, k-i, cursor)
				}
				if tr != nil {
					traceFaultBatch(tr, k, full, fullBlocks, ready)
				}
				end := mig.At(ready + latency)
				r.arrival[k] = end
				cursor = end + float64(full)*computePerByte
			}
			if st.v != nil {
				m.drop(&st, j-i)
			}
			// Whole bytes and eighths of fault blocks add exactly in float64
			// below 2⁵⁰, so one update equals the per-chunk additions.
			n := float64(j - i)
			m.Stats.PageFaults += fullBlocks * n
			m.Stats.FaultBatches += n
			m.Stats.MigratedBytes += float64(full) * n
			m.holdRun(r, i, j, int64(j-i)*full)
			i = j
			continue
		}
		m.touch(r, i)
		size := m.chunkSize(r, i)
		if r.Resident(i) {
			cursor = m.awaitResident(r, i, cursor, tr) + float64(size)*computePerByte
			i++
			continue
		}
		blocks := fullBlocks
		if size != full {
			blocks = float64((size+m.cfg.FaultBlockBytes-1)/m.cfg.FaultBlockBytes) / 8
		}
		ready := cursor
		if m.resident+size > m.capacity {
			ready = m.makeRoom(cursor, size)
		}
		m.Stats.PageFaults += blocks
		m.Stats.FaultBatches++
		m.Stats.MigratedBytes += float64(size)
		traceFaultBatch(tr, i, size, blocks, ready)
		end := m.bus.MigrateOnDemand(ready+latency, size, 1)
		m.hold(r, i, end, size)
		cursor = end + float64(size)*computePerByte
		i++
	}
	return cursor
}

// PrefetchRegion issues cudaMemPrefetchAsync for the whole region at time
// t, streaming non-resident chunks over the H2D link in order. It returns
// the time the prefetch stream drains. Already-resident chunks cost only
// driver bookkeeping time (page-table walks, no link traffic).
//
// A run of non-resident full chunks that fits the device streams as one
// chain reservation written straight into the arrivals. Under capacity
// pressure the stream evicts as it advances, one victim per chunk from
// the ring head's stretch, because victim writebacks and evict instants
// are defined to happen at stream time — an oversubscribed prefetch
// evicts its own earliest chunks mid-stream.
func (m *Manager) PrefetchRegion(r *Region, t float64) float64 {
	end := t + m.cfg.PrefetchCallNs
	for i := 0; i < r.NumChunks(); {
		size := m.chunkSize(r, i)
		if r.Resident(i) {
			end += float64(size) / float64(1<<30) * m.cfg.ResidentPrefetchNsPerGB
			i++
			continue
		}
		j, st := m.segment(r, i, r.NumChunks())
		switch {
		case j == i:
			end = m.bus.PrefetchChunk(m.makeRoom(end, size), size)
			m.hold(r, i, end, size)
			m.Stats.PrefetchBytes += float64(size)
			m.touch(r, i)
			i++
			continue
		case st.v == nil:
			end = m.bus.PrefetchRun(end, size, r.arrival[i:j])
		default:
			pf := m.bus.PrefetchLane(size)
			for k := i; k < j; k++ {
				end = pf.At(m.evictAt(&st, k-i, end))
				r.arrival[k] = end
			}
			m.drop(&st, j-i)
		}
		m.holdRun(r, i, j, int64(j-i)*size)
		m.Stats.PrefetchBytes += float64(size) * float64(j-i) // exact, as in DemandRange
		i = j
	}
	return end
}

// MarkDeviceWritten makes all of the region's chunks device-resident as
// of time t without any transfer: a device-side write to a non-resident
// managed page allocates it on the device (first touch), it does not
// migrate stale host data.
//
// Each run of non-resident full chunks is linked with one splice
// (holdRun). A run that oversubscribes the device evicts one victim per
// chunk from the ring head's stretch, writebacks reserved at t, and the
// interleaving stays observable: a written region larger than device
// memory evicts its own earliest chunks as later ones allocate. A short
// tail chunk, and every chunk in reference mode, allocates and evicts on
// its own.
func (m *Manager) MarkDeviceWritten(r *Region, t float64) {
	if r.residentBytes == r.Size {
		return
	}
	for i := 0; i < r.NumChunks(); {
		if r.Resident(i) {
			i++
			continue
		}
		j, st := m.segment(r, i, r.NumChunks())
		if j == i {
			size := m.chunkSize(r, i)
			m.makeRoom(t, size)
			m.hold(r, i, t, size)
			m.touch(r, i)
			i++
			continue
		}
		for k := i; k < j; k++ {
			if st.v != nil {
				m.evictAt(&st, k-i, t)
			}
			r.arrival[k] = t
		}
		if st.v != nil {
			m.drop(&st, j-i)
		}
		m.holdRun(r, i, j, int64(j-i)*m.cfg.ChunkBytes)
		i = j
	}
}

// MarkDirty records that the device wrote the byte range [off, off+n).
func (m *Manager) MarkDirty(r *Region, off, n int64) {
	if n <= 0 {
		return
	}
	first := off / m.cfg.ChunkBytes
	last := (off + n - 1) / m.cfg.ChunkBytes
	if max := int64(r.NumChunks() - 1); last > max {
		last = max
	}
	if first > last {
		return
	}
	r.markDirtyRange(int(first), int(last))
}

// WritebackPartial migrates up to maxBytes of the region's dirty chunks
// back to the host, starting at t, and returns the completion time. It
// models a CPU consumer that touches only part of the result (checksums,
// sampled verification) — with UVM, untouched dirty pages never cross
// the bus, one of the paper's measured transfer savings.
//
// Iteration walks the set bits of the region's dirty bitmap in ascending
// chunk order, a clean word at a time, and stops once every dirty chunk
// has been written back.
func (m *Manager) WritebackPartial(r *Region, t float64, maxBytes int64) float64 {
	end := t
	var moved int64
	for wi := 0; r.dirtyCount > 0 && wi < len(r.dirty); wi++ {
		for w := r.dirty[wi]; w != 0; w &= w - 1 {
			if moved >= maxBytes {
				return end
			}
			i := wi<<6 | bits.TrailingZeros64(w)
			size := m.chunkSize(r, i)
			end = m.bus.Writeback(end, size)
			m.Stats.WritebackBytes += float64(size)
			r.cleanChunk(i)
			moved += size
		}
	}
	return end
}
