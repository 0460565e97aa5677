package uvm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uvmasim/internal/counters"
	"uvmasim/internal/pcie"
	"uvmasim/internal/trace"
)

// The differential harness drives the fast manager — the O(1) LRU-ring
// evictor and the per-run paths of lru.go — and the reference manager
// (SetReferenceEviction: the scan evictor of refscan.go and the
// per-chunk path everywhere) through identical random workloads — demand
// faults, prefetch streams, device writes, dirty marks, partial
// writebacks, unregister/re-register — on two managers with independent
// buses, and asserts they stay bit-for-bit equal: identical victim order
// and eviction-complete times, identical returned availability times,
// identical UVMStats, identical per-chunk state and ring order, and
// identical trace event streams. Every comparison runs with tracers
// attached and without, so no path can depend on the tracer.

type evictRec struct {
	region int // ordinal in the harness's region table
	idx    int
	at     float64
}

// diffRig is one manager under test plus its recording hooks.
type diffRig struct {
	m       *Manager
	bus     *pcie.Bus
	tr      *trace.Tracer
	regions []*Region
	ords    map[*Region]int
	evicts  []evictRec
}

// newDiffRig builds a rig; traced attaches a tracer to its bus.
func newDiffRig(capacity int64, reference, traced bool) *diffRig {
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
	}
	bus := pcie.New(pcie.DefaultConfig())
	bus.SetTracer(tr)
	rig := &diffRig{
		m:    NewManager(DefaultConfig(), bus, capacity, &counters.UVMStats{}),
		bus:  bus,
		tr:   tr,
		ords: make(map[*Region]int),
	}
	rig.m.SetReferenceEviction(reference)
	rig.m.onEvict = func(r *Region, idx int, ready float64) {
		rig.evicts = append(rig.evicts, evictRec{rig.ords[r], idx, ready})
	}
	return rig
}

func (rig *diffRig) register(t *testing.T, size int64) {
	t.Helper()
	r, err := rig.m.Register(size)
	if err != nil {
		t.Fatal(err)
	}
	rig.ords[r] = len(rig.regions)
	rig.regions = append(rig.regions, r)
}

// step applies one scripted operation and returns its time result (NaN
// for untimed operations) plus a label for failure messages.
func (rig *diffRig) step(rng *rand.Rand, now float64) (float64, string) {
	r := rig.regions[rng.Intn(len(rig.regions))]
	switch op := rng.Intn(8); op {
	case 7:
		return rig.stream(r, now, rng.Float64()*0.01), fmt.Sprintf("stream r%d", rig.ords[r])
	case 0:
		idx := rng.Intn(r.NumChunks())
		return rig.m.DemandChunk(r, idx, now, 0.5+0.5*rng.Float64(), rng.Intn(2) == 0),
			fmt.Sprintf("demand r%d[%d]", rig.ords[r], idx)
	case 6:
		n := r.NumChunks()
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		cpb := rng.Float64() * 0.01
		return rig.m.DemandRange(r, lo, hi, now, cpb),
			fmt.Sprintf("range r%d[%d:%d]", rig.ords[r], lo, hi)
	case 1:
		return rig.m.PrefetchRegion(r, now), fmt.Sprintf("prefetch r%d", rig.ords[r])
	case 2:
		rig.m.MarkDeviceWritten(r, now)
		return math.NaN(), fmt.Sprintf("write r%d", rig.ords[r])
	case 3:
		off := int64(rng.Intn(int(r.Size)))
		n := int64(1 + rng.Intn(4<<20))
		rig.m.MarkDirty(r, off, n)
		return math.NaN(), fmt.Sprintf("dirty r%d %d+%d", rig.ords[r], off, n)
	case 4:
		max := int64(1+rng.Intn(8)) << 20
		return rig.m.WritebackPartial(r, now, max), fmt.Sprintf("writeback r%d max %d", rig.ords[r], max)
	default:
		return rig.m.WritebackPartial(r, now, r.Size), fmt.Sprintf("flush r%d", rig.ords[r])
	}
}

// stream is one pass of the oversub cell over r from time t: prefetch
// the region, demand it in order, then mark it device-written and
// dirty. Past capacity every step evicts, through all three evicting
// run loops. It returns the compute cursor.
func (rig *diffRig) stream(r *Region, t, computePerByte float64) float64 {
	end := rig.m.PrefetchRegion(r, t)
	end = rig.m.DemandRange(r, 0, r.NumChunks(), end, computePerByte)
	rig.m.MarkDeviceWritten(r, end)
	rig.m.MarkDirty(r, 0, r.Size)
	return end
}

// TestDifferentialEviction is the property test of the tentpole: for
// random capacities, region mixes (including regions larger than the
// whole device budget, the self-evicting oversubscription regime) and
// operation scripts, the new and reference evictors must be
// indistinguishable.
func TestDifferentialEviction(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			forTracing(t, func(t *testing.T, traced bool) { differentialEviction(t, seed, traced) })
		})
	}
}

// forTracing runs f as two subtests, with tracers attached and without.
func forTracing(t *testing.T, f func(t *testing.T, traced bool)) {
	t.Helper()
	t.Run("traced", func(t *testing.T) { f(t, true) })
	t.Run("untraced", func(t *testing.T) { f(t, false) })
}

func differentialEviction(t *testing.T, seed int64, traced bool) {
	rng := rand.New(rand.NewSource(seed))
	capacity := int64(3+rng.Intn(10)) << 20
	nRegions := 2 + rng.Intn(3)
	sizes := make([]int64, nRegions)
	for i := range sizes {
		// Up to ~2x capacity so single regions oversubscribe.
		sizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
		if rng.Intn(3) == 0 {
			sizes[i] -= int64(rng.Intn(1 << 20)) // short tail chunk
		}
	}

	fast := newDiffRig(capacity, false, traced)
	ref := newDiffRig(capacity, true, traced)
	for _, s := range sizes {
		fast.register(t, s)
		ref.register(t, s)
	}

	// Both rigs replay the same script: clone the op stream by
	// running two identical RNGs in lockstep.
	opsA := rand.New(rand.NewSource(seed + 1000))
	opsB := rand.New(rand.NewSource(seed + 1000))
	now := 0.0
	for step := 0; step < 300; step++ {
		gotA, label := fast.step(opsA, now)
		gotB, _ := ref.step(opsB, now)
		if gotA != gotB && !(math.IsNaN(gotA) && math.IsNaN(gotB)) {
			t.Fatalf("step %d (%s): time %v (lru) != %v (scan)", step, label, gotA, gotB)
		}
		if !math.IsNaN(gotA) && gotA > now {
			now = gotA
		}
		// Occasionally recycle a region mid-run.
		if step%97 == 96 {
			i := opsA.Intn(len(fast.regions))
			_ = opsB.Intn(len(ref.regions))
			recycle(t, fast, i)
			recycle(t, ref, i)
		}
		// And occasionally reset the whole manager (the pooled
		// context lifecycle), re-registering every region from
		// the recycled arenas.
		if step%131 == 130 {
			resetRig(t, fast, sizes)
			resetRig(t, ref, sizes)
		}
	}

	compareRigs(t, fast, ref)

	// Everything ends clean.
	for i := range fast.regions {
		recycle(t, fast, i)
		recycle(t, ref, i)
	}
	if fast.m.ResidentBytes() != 0 || ref.m.ResidentBytes() != 0 {
		t.Fatalf("resident bytes leaked: lru %d, scan %d",
			fast.m.ResidentBytes(), ref.m.ResidentBytes())
	}
}

// recycle unregisters region i and registers a same-size replacement in
// its table slot.
func recycle(t *testing.T, rig *diffRig, i int) {
	t.Helper()
	old := rig.regions[i]
	if err := rig.m.Unregister(old); err != nil {
		t.Fatal(err)
	}
	checkClean(t, rig.m)
	delete(rig.ords, old)
	r, err := rig.m.Register(old.Size)
	if err != nil {
		t.Fatal(err)
	}
	rig.regions[i] = r
	rig.ords[r] = i
}

// resetRig resets the rig's manager (exercising the arena recycling
// path) and re-registers the same region sizes in order, so the rig's
// ordinal table keeps describing the same logical regions.
func resetRig(t *testing.T, rig *diffRig, sizes []int64) {
	t.Helper()
	rig.m.Reset()
	checkClean(t, rig.m)
	rig.regions = rig.regions[:0]
	rig.ords = make(map[*Region]int)
	for _, s := range sizes {
		rig.register(t, s)
	}
}

// dirtyBit reports chunk i's bit in r's dirty bitmap.
func dirtyBit(r *Region, i int) bool { return r.dirty[i>>6]>>(i&63)&1 != 0 }

// checkClean asserts the recycling invariant that takeRegion relies on,
// after an Unregister or Reset: every free region is clean over its
// whole node capacity — each owned slot unlinked, each arrival +Inf,
// nothing resident, no dirty bit set — and owner maps every slot of every
// region ever created back to that region.
func checkClean(t *testing.T, m *Manager) {
	t.Helper()
	for _, r := range m.free {
		if r.residentCount != 0 || r.residentBytes != 0 || r.dirtyCount != 0 {
			t.Fatalf("free region at slot %d not clean: resident %d (%d B), dirty %d",
				r.base, r.residentCount, r.residentBytes, r.dirtyCount)
		}
		c := int(r.nodeCap)
		arrival := r.arrival[:c]
		for i := 0; i < c; i++ {
			if n := m.nodes[r.base+int32(i)]; n != unlinked {
				t.Fatalf("free region at slot %d: chunk %d still linked %+v", r.base, i, n)
			}
			if !math.IsInf(arrival[i], 1) {
				t.Fatalf("free region at slot %d: chunk %d arrival %v", r.base, i, arrival[i])
			}
		}
		for wi, w := range r.dirty[:dirtyWords(c)] {
			if w != 0 {
				t.Fatalf("free region at slot %d: dirty word %d is %#x", r.base, wi, w)
			}
		}
	}
	for _, r := range m.regs {
		for i := int32(0); i < r.nodeCap; i++ {
			if got := m.owner(r.base + i); got != r {
				t.Fatalf("owner(%d) = region at slot %d, want region at slot %d", r.base+i, got.base, r.base)
			}
		}
	}
}

// compareRigs asserts full observable-state equality between the two
// rigs, trace streams included.
func compareRigs(t *testing.T, fast, ref *diffRig) {
	t.Helper()
	compareRigsState(t, fast, ref)
	compareTraces(t, fast.tr.Events(), ref.tr.Events())
}

// compareRigsState asserts equality of everything except the raw trace
// streams (TestResetMatchesFresh compares those over a suffix, since the
// recycled rig's tracer keeps its warm-phase events).
func compareRigsState(t *testing.T, fast, ref *diffRig) {
	t.Helper()
	ringA, ringB := fast.ring(), ref.ring()
	if len(ringA) != len(ringB) {
		t.Fatalf("ring lengths differ: %d vs %d", len(ringA), len(ringB))
	}
	for i := range ringA {
		if ringA[i] != ringB[i] {
			t.Fatalf("ring position %d differs: %+v vs %+v", i, ringA[i], ringB[i])
		}
	}
	if len(fast.evicts) != len(ref.evicts) {
		t.Fatalf("eviction counts differ: %d (lru) vs %d (scan)", len(fast.evicts), len(ref.evicts))
	}
	for i := range fast.evicts {
		if fast.evicts[i] != ref.evicts[i] {
			t.Fatalf("eviction %d differs: %+v (lru) vs %+v (scan)", i, fast.evicts[i], ref.evicts[i])
		}
	}
	if *fast.m.Stats != *ref.m.Stats {
		t.Fatalf("stats differ:\nlru:  %+v\nscan: %+v", *fast.m.Stats, *ref.m.Stats)
	}
	if fast.m.ResidentBytes() != ref.m.ResidentBytes() {
		t.Fatalf("resident bytes differ: %d vs %d", fast.m.ResidentBytes(), ref.m.ResidentBytes())
	}
	for i, fr := range fast.regions {
		rr := ref.regions[i]
		if fr.ResidentChunks() != rr.ResidentChunks() || fr.ResidentBytes() != rr.ResidentBytes() ||
			fr.DirtyChunks() != rr.DirtyChunks() {
			t.Fatalf("region %d summary differs: res %d/%d bytes %d/%d dirty %d/%d", i,
				fr.ResidentChunks(), rr.ResidentChunks(), fr.ResidentBytes(), rr.ResidentBytes(),
				fr.DirtyChunks(), rr.DirtyChunks())
		}
		for c := range fr.arrival {
			if fr.arrival[c] != rr.arrival[c] && !(math.IsInf(fr.arrival[c], 1) && math.IsInf(rr.arrival[c], 1)) {
				t.Fatalf("region %d chunk %d arrival differs: %v vs %v", i, c, fr.arrival[c], rr.arrival[c])
			}
			if dirtyBit(fr, c) != dirtyBit(rr, c) {
				t.Fatalf("region %d chunk %d dirty differs", i, c)
			}
			if fr.lastUse[c] != rr.lastUse[c] {
				t.Fatalf("region %d chunk %d stamp differs: %d vs %d", i, c, fr.lastUse[c], rr.lastUse[c])
			}
		}
	}
}

// ring returns the rig's LRU ring from oldest to newest as (region
// ordinal, chunk) pairs.
func (rig *diffRig) ring() []evictRec {
	var out []evictRec
	for s := rig.m.nodes[0].next; s != 0; s = rig.m.nodes[s].next {
		r := rig.m.owner(s)
		out = append(out, evictRec{region: rig.ords[r], idx: int(s - r.base)})
	}
	return out
}

// compareTraces asserts two trace event streams are identical.
func compareTraces(t *testing.T, evA, evB []trace.Event) {
	t.Helper()
	if len(evA) != len(evB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("trace event %d differs:\nA: %+v\nB: %+v", i, evA[i], evB[i])
		}
	}
}

// TestLRUMatchesStampOrder pins the structural invariant behind the O(1)
// victim choice: the global ring is always sorted by last-use stamp.
func TestLRUMatchesStampOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rig := newDiffRig(9<<20, false, true)
	for _, s := range []int64{5 << 20, 7 << 20, 4<<20 - 777} {
		rig.register(t, s)
	}
	now := 0.0
	for step := 0; step < 500; step++ {
		if got, _ := rig.step(rng, now); !math.IsNaN(got) && got > now {
			now = got
		}
		last := int64(-1)
		count := 0
		for s := rig.m.nodes[0].next; s != 0; s = rig.m.nodes[s].next {
			reg := rig.m.owner(s)
			idx := int(s - reg.base)
			stamp := reg.lastUse[idx]
			if stamp <= last {
				t.Fatalf("step %d: ring out of stamp order (%d after %d)", step, stamp, last)
			}
			if !reg.Resident(idx) {
				t.Fatalf("step %d: non-resident chunk on the ring", step)
			}
			last = stamp
			count++
		}
		total := 0
		for _, r := range rig.regions {
			total += r.ResidentChunks()
		}
		if count != total {
			t.Fatalf("step %d: ring has %d nodes, regions count %d resident", step, count, total)
		}
	}
}

// TestDemandRangeMatchesChunkLoop pins the batched demand path to its
// definition: DemandRange(lo, hi) must be observably identical — returned
// compute cursor, stats, per-chunk state, victim order and trace stream —
// to the caller-side loop of DemandChunk(i, cursor, 1, true) it replaced
// on the sequential launch path.
func TestDemandRangeMatchesChunkLoop(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			forTracing(t, func(t *testing.T, traced bool) {
				rng := rand.New(rand.NewSource(seed))
				capacity := int64(3+rng.Intn(8)) << 20
				nRegions := 1 + rng.Intn(3)
				sizes := make([]int64, nRegions)
				for i := range sizes {
					sizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
					if rng.Intn(3) == 0 {
						sizes[i] -= int64(rng.Intn(1 << 20))
					}
				}

				batched := newDiffRig(capacity, false, traced)
				looped := newDiffRig(capacity, false, traced)
				for _, s := range sizes {
					batched.register(t, s)
					looped.register(t, s)
				}

				opsA := rand.New(rand.NewSource(seed + 2000))
				opsB := rand.New(rand.NewSource(seed + 2000))
				now := 0.0
				for step := 0; step < 200; step++ {
					// Mostly mixed ops (run in lockstep on both rigs) to build
					// up partial residency, prefetch races and dirty state;
					// every fourth step is the range-vs-loop probe itself.
					if step%4 != 3 {
						gotA, label := batched.step(opsA, now)
						gotB, _ := looped.step(opsB, now)
						if gotA != gotB && !(math.IsNaN(gotA) && math.IsNaN(gotB)) {
							t.Fatalf("step %d (%s): mixed op diverged: %v vs %v", step, label, gotA, gotB)
						}
						if !math.IsNaN(gotA) && gotA > now {
							now = gotA
						}
						continue
					}
					ri := opsA.Intn(len(batched.regions))
					_ = opsB.Intn(len(looped.regions))
					rA, rB := batched.regions[ri], looped.regions[ri]
					n := rA.NumChunks()
					lo := opsA.Intn(n)
					hi := lo + 1 + opsA.Intn(n-lo)
					cpb := opsA.Float64() * 0.01
					_, _, _ = opsB.Intn(n), opsB.Intn(n-lo), opsB.Float64()

					gotA := batched.m.DemandRange(rA, lo, hi, now, cpb)
					cursor := now
					for i := lo; i < hi; i++ {
						avail := looped.m.DemandChunk(rB, i, cursor, 1, true)
						cursor = avail + float64(looped.m.chunkSize(rB, i))*cpb
					}
					if gotA != cursor {
						t.Fatalf("step %d: DemandRange r%d[%d:%d) returned %v, chunk loop %v",
							step, ri, lo, hi, gotA, cursor)
					}
					if gotA > now {
						now = gotA
					}
				}
				compareRigs(t, batched, looped)
			})
		})
	}
}

// TestResetMatchesFresh pins the recycling oracle behind the context
// pool: a manager that has been driven hard, Reset, and re-registered
// from its free list must replay a script exactly like a freshly
// constructed manager — same availability times, same victim order, same
// stats, same per-chunk state, same trace stream.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			forTracing(t, func(t *testing.T, traced bool) {
				rng := rand.New(rand.NewSource(seed))
				capacity := int64(3+rng.Intn(8)) << 20
				warmSizes := make([]int64, 2+rng.Intn(3))
				for i := range warmSizes {
					warmSizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
				}
				sizes := make([]int64, 2+rng.Intn(3))
				for i := range sizes {
					sizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
					if rng.Intn(3) == 0 {
						sizes[i] -= int64(rng.Intn(1 << 20))
					}
				}

				recycled := newDiffRig(capacity, false, traced)
				for _, s := range warmSizes {
					recycled.register(t, s)
				}
				warm := rand.New(rand.NewSource(seed + 500))
				now := 0.0
				for i := 0; i < 150; i++ {
					if got, _ := recycled.step(warm, now); !math.IsNaN(got) && got > now {
						now = got
					}
				}

				// Reset the full simulated machine the way cuda.Context.Reset
				// does: manager arenas, bus timeline, counters. The tracer keeps
				// its warm-phase events; the comparison below starts after them.
				recycled.m.Reset()
				checkClean(t, recycled.m)
				recycled.bus.Reset()
				*recycled.m.Stats = counters.UVMStats{}
				recycled.evicts = recycled.evicts[:0]
				recycled.regions = recycled.regions[:0]
				recycled.ords = make(map[*Region]int)
				warmEvents := len(recycled.tr.Events())

				fresh := newDiffRig(capacity, false, traced)
				for _, s := range sizes {
					recycled.register(t, s)
					fresh.register(t, s)
				}

				opsA := rand.New(rand.NewSource(seed + 900))
				opsB := rand.New(rand.NewSource(seed + 900))
				now = 0.0
				for step := 0; step < 200; step++ {
					gotA, label := recycled.step(opsA, now)
					gotB, _ := fresh.step(opsB, now)
					if gotA != gotB && !(math.IsNaN(gotA) && math.IsNaN(gotB)) {
						t.Fatalf("step %d (%s): recycled %v, fresh %v", step, label, gotA, gotB)
					}
					if !math.IsNaN(gotA) && gotA > now {
						now = gotA
					}
				}

				compareRigsState(t, recycled, fresh)
				compareTraces(t, recycled.tr.Events()[warmEvents:], fresh.tr.Events())
			})
		})
	}
}

// TestRunPathsMatchReference scripts the shapes that split, end or skip
// runs and checks each run path against reference mode, with tracers and
// without: returned times, then the full state comparison (arrivals,
// stamps, ring order, stats, victims, traces) and the clean invariant
// after every release.
func TestRunPathsMatchReference(t *testing.T) {
	const chunk = 2 << 20
	cases := []struct {
		name     string
		capacity int64
		sizes    []int64
		script   func(t *testing.T, rig *diffRig) []float64
	}{
		{"partial residency", 64 * chunk, []int64{16 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			m, a := rig.m, rig.regions[0]
			out := []float64{
				m.DemandChunk(a, 3, 0, 1, true),
				m.DemandChunk(a, 9, 1e3, 0.5, false),
				// Prefetch runs [0,3), [4,9), [10,16) around resident chunks.
				m.PrefetchRegion(a, 2e3),
			}
			out = append(out, m.DemandRange(a, 0, 16, out[2]/2, 1e-3))
			recycle(t, rig, 0)
			a = rig.regions[0]
			m.DemandChunk(a, 0, 0, 1, true)
			m.DemandChunk(a, 15, 0, 1, true)
			m.MarkDeviceWritten(a, 5e6) // one write run between resident ends
			return append(out, m.DemandRange(a, 2, 14, 6e6, 0))
		}},
		{"short tail", 64 * chunk, []int64{11*chunk - 12345, 7*chunk + 1}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{
				m.PrefetchRegion(a, 0),
				m.DemandRange(b, 0, b.NumChunks(), 0, 1e-4),
				m.DemandRange(a, 0, a.NumChunks(), 1e5, 1e-4),
			}
			m.DemandChunk(b, 2, 0, 1, false)
			recycle(t, rig, 1)
			b = rig.regions[1]
			m.DemandChunk(b, 3, 0, 1, false)
			m.MarkDeviceWritten(b, 9e6) // runs [0,3) and [4,8), the latter ending at the short tail
			m.MarkDirty(b, 0, b.Size)
			return append(out, m.WritebackPartial(b, 1e7, b.Size))
		}},
		{"interleaved regions", 64 * chunk, []int64{16 * chunk, 12 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{m.PrefetchRegion(a, 0), m.PrefetchRegion(b, 1e3)}
			out = append(out,
				m.DemandRange(a, 4, 10, 2e6, 1e-4), // a stretch cut from mid-ring
				m.DemandRange(b, 0, 12, 3e6, 1e-4),
				m.DemandRange(a, 0, 16, 4e6, 1e-4), // three stretches: [0,4), [4,10), [10,16)
				m.DemandChunk(b, 5, 5e6, 1, true),
				m.DemandRange(b, 0, 12, 6e6, 1e-4), // [0,5), [5,6) and [6,12)
			)
			recycle(t, rig, 0) // a is one run in slot order
			recycle(t, rig, 1) // b is one run in slot order
			return out
		}},
		{"fit then evict", 10 * chunk, []int64{16 * chunk, 6*chunk - 7}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{m.DemandRange(a, 0, 16, 0, 1e-4)} // ten fit, six evict a's own head
			m.MarkDirty(a, 0, a.Size)
			out = append(out,
				m.PrefetchRegion(b, out[0]), // a fitting prefix of zero, then evictions
				m.DemandRange(a, 0, 16, out[0], 1e-4),
				m.WritebackPartial(a, out[0], 5*chunk),
			)
			recycle(t, rig, 1)
			b = rig.regions[1]
			m.MarkDeviceWritten(b, out[0]) // oversubscribing write, per chunk
			recycle(t, rig, 0)             // a's remaining chunks: one run from mid-region
			return append(out, m.PrefetchRegion(rig.regions[0], out[0]))
		}},
		{"release not one run", 64 * chunk, []int64{12 * chunk, 8 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{m.PrefetchRegion(a, 0), m.PrefetchRegion(b, 0)}
			out = append(out, m.DemandRange(a, 3, 6, out[1], 1e-4)) // a: [0,3) [6,12) ... b ... [3,6)
			recycle(t, rig, 0)
			a = rig.regions[0]
			out = append(out, m.PrefetchRegion(a, out[2]))
			out = append(out, m.DemandChunk(a, 4, out[3], 1, true)) // one ring stretch, not in slot order
			recycle(t, rig, 0)
			out = append(out, m.DemandRange(b, 0, 8, out[4], 0))
			m.DemandChunk(b, 0, out[5], 1, true) // b: [1,8) then 0
			recycle(t, rig, 1)
			return out
		}},
		// Oversubscribed streams: each pass runs the three evicting loops
		// (PrefetchRegion, DemandRange, MarkDeviceWritten) past capacity,
		// taking victims from the ring head's stretch.
		{"stream clean then dirty victims", 8 * chunk, []int64{20 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			a := rig.regions[0]
			// Pass one's victims are clean; MarkDirty leaves pass two's dirty.
			out := []float64{rig.stream(a, 0, 1e-4)}
			return append(out, rig.stream(a, out[0], 1e-4), rig.stream(a, 2*out[0], 0))
		}},
		{"stream own chunks ahead of the cursor", 8 * chunk, []int64{12 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			m, a := rig.m, rig.regions[0]
			out := []float64{m.PrefetchRegion(a, 0)} // leaves [4,12) resident
			m.MarkDirty(a, 6*chunk, 3*chunk)
			// [0,4) evicts [4,8) ahead of the cursor, [4,8) evicts [8,12),
			// and [8,12) wraps around to the [0,4) it made resident first.
			out = append(out, m.DemandRange(a, 0, 12, out[0], 1e-4))
			m.MarkDirty(a, 0, a.Size)
			recycle(t, rig, 0)
			a = rig.regions[0]
			m.DemandRange(a, 4, 12, out[1], 0)
			m.MarkDeviceWritten(a, out[1]) // [0,4) takes [4,8), [4,8) takes [8,12), [8,12) takes [0,4)
			return append(out, m.PrefetchRegion(a, out[1]))
		}},
		{"stream victims from another region", 10 * chunk, []int64{14 * chunk, 6 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{m.PrefetchRegion(b, 0)}
			m.MarkDirty(b, chunk, 3*chunk)                          // b1..b3 dirty
			out = append(out, m.DemandRange(a, 0, 4, out[0], 1e-4)) // fits
			// a[4,14) first takes b's six chunks, then a's own head.
			out = append(out, rig.stream(a, out[1], 1e-4))
			m.MarkDeviceWritten(b, out[2]) // b takes its victims from a
			return append(out, rig.stream(b, out[2], 1e-4))
		}},
		{"stretch ends where slot order breaks", 9 * chunk, []int64{16 * chunk, 8 * chunk}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{m.PrefetchRegion(b, 0)}
			out = append(out, m.DemandChunk(b, 3, out[0], 1, true)) // ring: b0 b1 b2 b4..b7 b3
			m.MarkDirty(b, 5*chunk, chunk)
			out = append(out, m.DemandChunk(a, 15, out[1], 1, true))
			// Stretches of three (b0..b2), four (b4..b7), one (b3), then
			// a15, then a's own chunks.
			out = append(out, m.PrefetchRegion(a, out[2]))
			out = append(out, m.DemandChunk(b, 6, out[3], 1, true), m.DemandChunk(b, 2, out[3], 1, true))
			m.MarkDeviceWritten(b, out[4]) // b's runs, split by resident b2 and b6, share one stretch of a's
			// a takes a14, then b in stretches of one (b6), one (b2), two
			// (b0, b1), three (b3..b5) and one (b7), then wraps into itself.
			return append(out, m.DemandRange(a, 0, 16, out[4], 1e-4))
		}},
		{"short tail victim", 8 * chunk, []int64{14 * chunk, 5*chunk - 12345}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{m.PrefetchRegion(b, 0)}
			m.MarkDirty(b, 0, b.Size)
			// a0..a2 fit; a3..a6 take the stretch b0..b3, which stops
			// before b's short tail; a7 evicts that tail through makeRoom.
			out = append(out, m.DemandRange(a, 0, 14, out[0], 1e-4))
			m.MarkDirty(a, 0, a.Size)
			recycle(t, rig, 1)
			b = rig.regions[1]
			m.MarkDeviceWritten(b, out[1]) // b's short tail allocates through makeRoom
			return append(out, rig.stream(a, out[1], 1e-4))
		}},
		{"capacity not a whole number of chunks", 8*chunk + chunk/2, []int64{19 * chunk, 3*chunk - 777}, func(t *testing.T, rig *diffRig) []float64 {
			m, a, b := rig.m, rig.regions[0], rig.regions[1]
			out := []float64{rig.stream(b, 0, 1e-4)}
			out = append(out, rig.stream(a, out[0], 1e-4), rig.stream(a, out[0], 1e-4))
			m.MarkDeviceWritten(b, out[2])
			return append(out, rig.stream(a, out[2], 0), rig.stream(b, out[2], 1e-4))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			forTracing(t, func(t *testing.T, traced bool) {
				fast := newDiffRig(tc.capacity, false, traced)
				ref := newDiffRig(tc.capacity, true, traced)
				for _, s := range tc.sizes {
					fast.register(t, s)
					ref.register(t, s)
				}
				got, want := tc.script(t, fast), tc.script(t, ref)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("result %d: %v, reference %v", i, got[i], want[i])
					}
				}
				compareRigs(t, fast, ref)
			})
		})
	}
}
