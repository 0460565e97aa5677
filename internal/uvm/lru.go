package uvm

import (
	"math"

	"uvmasim/internal/pcie"
	"uvmasim/internal/trace"
)

// The eviction path used to select victims with a full scan over every
// chunk of every region — O(chunks) per evicted chunk, O(chunks²) for an
// oversubscribed pass. The manager keeps constant-time residency
// bookkeeping instead:
//
//   - a global LRU ring threaded through every resident chunk, ordered
//     by last-use stamp (the stamp clock is monotone and every residency
//     transition is accompanied by a touch, so append-at-MRU keeps the
//     ring sorted). Victim selection pops the ring's head; touch unlinks
//     and re-appends at the tail.
//   - per-region resident counters (count and bytes), making
//     ResidentChunks and aggregate capacity checks O(1).
//
// The links are int32 slot indices into one flat node arena owned by the
// Manager, not pointers: a simulated iteration relinks chunks millions
// of times, and pointer links made every relink a write-barrier hit and
// every node a GC scan target (the ~45% GC share of the pre-arena
// figure-suite profile). Index links touch no pointers, so the hot loop
// runs barrier-free and the arena is skipped by the garbage collector's
// scan entirely.
//
// A node is just its two ring links, 8 bytes. Everything else a node
// could carry is recoverable from its slot: regions own contiguous slot
// ranges [base, base+nodeCap) allocated in creation order, so the owner
// of a slot is a binary search over Manager.regs by base (owner), and the
// chunk index is the slot's offset from that base. Only victim selection
// needs the lookup; every other path already knows its region. Unregister
// cuts a region whose resident chunks are one slot-ordered run out of the
// ring in O(1), and otherwise walks the region's own slot range instead
// of a per-region resident list, stopping once it has unlinked
// residentCount chunks, so hold and release relink the global ring and
// nothing else.
//
// The arena grows by doubling (newNodeRange), so building a large
// region's slots copies the existing arena at most once per doubling
// rather than on every ~1.25× step of append's growth.
//
// Victim stretches. Once the device is full, every chunk a stream makes
// resident evicts the ring head. The head's stretch is the head's region,
// resolved once by owner, plus the full-size chunks of that region linked
// after the head in slot order; the run paths and every oversubscribed
// pass leave the ring in this shape (holdRun links a run in slot order,
// and a stream evicts in ring order). A run of non-resident full-size
// chunks that needs room takes exactly one victim per chunk from the
// stretch: resident ≤ capacity before each chunk, and victim and chunk
// are both full-size, so one eviction always makes room and never more
// than room. The victims are the stretch's first chunks in order,
// whatever the run holds meanwhile, because held chunks join the ring's
// MRU end behind them. They leave the ring with one cut (segment,
// evictAt and drop below); only the per-victim float chain stays per
// chunk: a dirty victim's writeback, and the eviction's trace instant
// and onEvict call. Short tail chunks and short tail victims go through
// makeRoom.
//
// The reference scan selector is retained in refscan.go; the
// differential test pins the two implementations to identical victim
// order, timing and stats.

// chunkNode is the global LRU ring node of one migration granule, living
// in the Manager's flat arena at slot region.base+idx. A chunk is linked
// into the ring exactly while it is device-resident.
//
// Link encoding: slots are arena indices; slot 0 is the ring sentinel.
// prev/next use 0 for the sentinel and -1 for "not linked".
type chunkNode struct {
	prev, next int32 // oldest stamp first
}

// unlinked is the node state of a non-resident chunk.
var unlinked = chunkNode{prev: -1, next: -1}

// initLRU creates the node arena with the empty ring sentinel at slot 0.
func (m *Manager) initLRU() {
	m.nodes = append(m.nodes[:0], chunkNode{})
}

// newNodeRange appends n unlinked arena slots and returns the first one.
// Capacity at least doubles whenever the arena must grow.
func (m *Manager) newNodeRange(n int) int32 {
	base := len(m.nodes)
	need := base + n
	if need > cap(m.nodes) {
		grown := make([]chunkNode, base, max(need, 2*cap(m.nodes)))
		copy(grown, m.nodes)
		m.nodes = grown
	}
	m.nodes = m.nodes[:need]
	for i := base; i < need; i++ {
		m.nodes[i] = unlinked
	}
	return int32(base)
}

// owner returns the region whose slot range contains slot s (s > 0): the
// last region in creation order whose base is at most s.
func (m *Manager) owner(s int32) *Region {
	lo, hi := 0, len(m.regs)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if m.regs[mid].base <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return m.regs[lo]
}

// hold makes chunk idx device-resident with the given availability time:
// it links the chunk at the MRU end of the global ring and updates the
// resident counters. The caller has touched (or is about to touch) the
// chunk, so MRU placement matches its stamp.
func (m *Manager) hold(r *Region, idx int, arrival float64, size int64) {
	r.arrival[idx] = arrival
	m.linkTail(r.base + int32(idx))
	r.residentCount++
	r.residentBytes += size
	m.resident += size
}

// release drops chunk idx's residency: unlink from the ring, clear the
// arrival, and update the counters.
func (m *Manager) release(r *Region, idx int, size int64) {
	r.arrival[idx] = math.Inf(1)
	m.unlink(r.base + int32(idx))
	r.residentCount--
	r.residentBytes -= size
	m.resident -= size
}

// linkTail links slot s at the MRU end of the ring.
func (m *Manager) linkTail(s int32) {
	tail := m.nodes[0].prev
	m.nodes[s] = chunkNode{prev: tail, next: 0}
	m.nodes[tail].next = s
	m.nodes[0].prev = s
}

// unlink removes slot s from the ring and marks it unlinked.
func (m *Manager) unlink(s int32) {
	n := m.nodes[s]
	m.nodes[n.prev].next = n.next
	m.nodes[n.next].prev = n.prev
	m.nodes[s] = unlinked
}

// touch stamps chunk idx as recently used and, if it is resident, moves
// it to the MRU end of the global ring. next > 0 means "linked and not
// already the MRU tail" (0 is the sentinel, -1 is unlinked).
func (m *Manager) touch(r *Region, idx int) {
	m.stamp++
	r.lastUse[idx] = m.stamp
	s := r.base + int32(idx)
	if n := m.nodes[s]; n.next > 0 {
		m.nodes[n.prev].next = n.next
		m.nodes[n.next].prev = n.prev
		m.linkTail(s)
	}
}

// Run primitives. A run is a stretch of consecutive chunks of one region
// in the same state; the run paths in uvm.go hand whole runs to these,
// and each is equivalent, bit for bit, to the per-chunk primitives above
// applied to the run's chunks in ascending order: the same stamps, the
// same ring order, the same counters. Stamps stay one store per chunk;
// ring work drops to O(1) splices per run. They share no ring code with
// the per-chunk primitives, which reference mode runs as their oracle.

// cutChain removes the chain of ring nodes a..last (a's successors up to
// last) from the ring; the chain's own links are left for the caller.
func (m *Manager) cutChain(a, last int32) {
	prev, next := m.nodes[a].prev, m.nodes[last].next
	m.nodes[prev].next = next
	m.nodes[next].prev = prev
}

// appendChain links the chain of slots a..last, already linked to each
// other, at the MRU end of the ring.
func (m *Manager) appendChain(a, last int32) {
	tail := m.nodes[0].prev
	m.nodes[tail].next = a
	m.nodes[a].prev = tail
	m.nodes[last].next = 0
	m.nodes[0].prev = last
}

// stampRun gives chunks [i, j) the next stamps in order, as touch does
// one chunk at a time.
func (m *Manager) stampRun(r *Region, i, j int) {
	s := m.stamp
	lu := r.lastUse[i:j]
	for k := range lu {
		s++
		lu[k] = s
	}
	m.stamp = s
}

// holdRun makes non-resident chunks [i, j), whose arrivals the caller has
// written, resident exactly as hold followed by touch would chunk by
// chunk: the chunks are stamped in order, linked at the MRU end of the
// ring in chunk order with one splice, and the counters move once by the
// run's length and bytes.
func (m *Manager) holdRun(r *Region, i, j int, bytes int64) {
	m.stampRun(r, i, j)
	a, b := r.base+int32(i), r.base+int32(j)
	for s := a; s < b; s++ {
		m.nodes[s] = chunkNode{prev: s - 1, next: s + 1}
	}
	m.appendChain(a, b-1)
	r.residentCount += j - i
	r.residentBytes += bytes
	m.resident += bytes
}

// touchRun touches resident chunks [i, j) exactly as touch would chunk by
// chunk: they are stamped in order and end at the MRU end of the ring in
// chunk order, the rest of the ring keeping its order. Chunks whose slots
// are already linked to their successor move as one stretch, cut and
// appended with O(1) relinks, and a stretch that already is the ring's
// tail stays where it is. A run that PrefetchRegion or an earlier
// in-order touch left behind is one such stretch, so touching it costs
// one link read per chunk and no relink.
func (m *Manager) touchRun(r *Region, i, j int) {
	m.stampRun(r, i, j)
	end := r.base + int32(j)
	for a := r.base + int32(i); a < end; {
		b := a + 1
		for b < end && m.nodes[b-1].next == b {
			b++
		}
		if last := b - 1; m.nodes[last].next != 0 {
			m.cutChain(a, last)
			m.appendChain(a, last)
		}
		a = b
	}
}

// cutResident releases r's resident chunks from the ring with one splice
// when they are a single stretch of consecutive slots linked in slot
// order, the shape the run paths leave, and then clears their links and
// arrivals with straight stores. It reports false, changing nothing, for
// any other shape. The resident counters are the caller's.
func (m *Manager) cutResident(r *Region) bool {
	a := r.base
	for m.nodes[a].next < 0 {
		a++
	}
	nodes := m.nodes[a : a+int32(r.residentCount)]
	for k := 1; k < len(nodes); k++ {
		if nodes[k-1].next != a+int32(k) {
			return false
		}
	}
	m.cutRun(r, int(a-r.base), len(nodes))
	return true
}

// cutRun cuts r's chunks [i, i+n), linked to each other in slot order,
// out of the ring with one splice and clears their links and arrivals
// with straight stores. The counters are the caller's.
func (m *Manager) cutRun(r *Region, i, n int) {
	a := r.base + int32(i)
	m.cutChain(a, a+int32(n)-1)
	nodes := m.nodes[a : a+int32(n)]
	arr := r.arrival[i : i+n]
	for k := range nodes {
		nodes[k] = unlinked
		arr[k] = math.Inf(1)
	}
}

// A stretch is the victim side of a segment that needs room: the
// victims are v's chunks from a on, taken in order, and dirty victims are
// written back on wb. v == nil marks a segment that fits.
type stretch struct {
	v     *Region
	a     int
	wb    pcie.Lane
	tr    *trace.Tracer
	wrote int // victims written back so far
}

// segment returns the next segment of the run of non-resident chunks of
// r that starts at non-resident chunk i below hi: its end j and its
// stretch. Chunks [i, j) are full-size and non-resident; when the
// segment needs room, chunk i+k takes the stretch's k-th victim. j == i
// sends chunk i down the per-chunk path: a short tail chunk, a short tail
// victim, an empty ring, or any chunk in reference mode. Callers
// recompute the segment after each one, so a stream that wraps into
// chunks it has just made resident evicts them in ring order.
func (m *Manager) segment(r *Region, i, hi int) (int, stretch) {
	if m.scanEvict {
		return i, stretch{}
	}
	chunk := m.cfg.ChunkBytes
	hi = min(hi, int(r.Size/chunk))
	j := i
	if room := int((m.capacity - m.resident) / chunk); room > 0 {
		for hi = min(hi, i+room); j < hi && math.IsInf(r.arrival[j], 1); j++ {
		}
		return j, stretch{}
	}
	s := m.nodes[0].next
	if s == 0 {
		return i, stretch{}
	}
	v := m.owner(s)
	a := int(s - v.base)
	for hi = min(hi, i+int(v.Size/chunk)-a); j < hi && math.IsInf(r.arrival[j], 1); j, s = j+1, s+1 {
		if j > i && m.nodes[s-1].next != s {
			break
		}
	}
	if j == i {
		return i, stretch{}
	}
	return j, stretch{v: v, a: a, wb: m.bus.WritebackLane(chunk), tr: m.bus.Tracer()}
}

// evictAt is makeRoom's per-victim chain for the stretch's k-th victim
// when room is needed at time t: a dirty victim is written back first.
// It returns the time the room is ready. The ring, the residency and the
// eviction counters are drop's, once per segment.
func (m *Manager) evictAt(st *stretch, k int, t float64) float64 {
	idx := st.a + k
	if st.v.cleanChunk(idx) {
		t = st.wb.At(t)
		st.wrote++
	}
	if st.tr != nil || m.onEvict != nil {
		m.evicted(st.v, idx, m.cfg.ChunkBytes, t, st.tr)
	}
	return t
}

// drop releases the stretch's first n victims, the ring's first n nodes,
// as n makeRoom evictions would: one cut, then the resident and eviction
// counters move once. Whole bytes add exactly in float64 below 2⁵³, so
// one update of each counter equals the per-victim additions.
func (m *Manager) drop(st *stretch, n int) {
	v := st.v
	m.cutRun(v, st.a, n)
	bytes := int64(n) * m.cfg.ChunkBytes
	v.residentCount -= n
	v.residentBytes -= bytes
	m.resident -= bytes
	m.Stats.EvictedBytes += float64(bytes)
	m.Stats.Evictions += float64(n)
	m.Stats.WritebackBytes += float64(int64(st.wrote) * m.cfg.ChunkBytes)
}

// victim returns the least-recently-used resident chunk, or (nil, -1)
// when nothing is resident: the ring head, resolved to its region by
// owner. The reference scan selector is used instead when the manager is
// in reference mode.
func (m *Manager) victim() (*Region, int) {
	if m.scanEvict {
		return m.victimScan()
	}
	if s := m.nodes[0].next; s != 0 {
		r := m.owner(s)
		return r, int(s - r.base)
	}
	return nil, -1
}
