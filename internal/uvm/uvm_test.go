package uvm

import (
	"math"
	"math/rand"
	"testing"

	"uvmasim/internal/counters"
	"uvmasim/internal/pcie"
)

func newTestManager(capacity int64) (*Manager, *pcie.Bus, *counters.UVMStats) {
	bus := pcie.New(pcie.DefaultConfig())
	stats := &counters.UVMStats{}
	m := NewManager(DefaultConfig(), bus, capacity, stats)
	return m, bus, stats
}

func TestRegisterUnregister(t *testing.T) {
	m, _, _ := newTestManager(1 << 30)
	r, err := m.Register(5 << 20) // 5 MB = 3 chunks (2+2+1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() != 3 {
		t.Errorf("NumChunks = %d, want 3", r.NumChunks())
	}
	if r.ResidentChunks() != 0 {
		t.Errorf("fresh region should have no resident chunks")
	}
	if m.chunkSize(r, 2) != 1<<20 {
		t.Errorf("tail chunk size = %d, want 1MB", m.chunkSize(r, 2))
	}
	if err := m.Unregister(r); err != nil {
		t.Fatal(err)
	}
	if err := m.Unregister(r); err == nil {
		t.Error("double unregister should fail")
	}
	if _, err := m.Register(0); err == nil {
		t.Error("zero-size region should fail")
	}
}

func TestDemandChunkFaultsAndMigrates(t *testing.T) {
	m, bus, stats := newTestManager(1 << 30)
	r, _ := m.Register(4 << 20)
	ready := m.DemandChunk(r, 0, 1000, 1, false)
	// Fault batch latency then migration at fault efficiency.
	expectMin := 1000 + m.cfg.FaultBatchLatencyNs +
		float64(2<<20)/(bus.Config().BytesPerNs()*bus.Config().FaultEfficiency)
	if math.Abs(ready-expectMin) > 1 {
		t.Errorf("ready = %v, want ~%v", ready, expectMin)
	}
	if !r.Resident(0) {
		t.Error("chunk should be resident after demand migration")
	}
	if stats.FaultBatches != 1 {
		t.Errorf("FaultBatches = %v, want 1", stats.FaultBatches)
	}
	if want := float64((2 << 20) / (64 << 10)); stats.PageFaults != want {
		t.Errorf("PageFaults = %v, want %v", stats.PageFaults, want)
	}
	if stats.MigratedBytes != float64(2<<20) {
		t.Errorf("MigratedBytes = %v", stats.MigratedBytes)
	}
	// Second access to the same chunk at a later time: free.
	if got := m.DemandChunk(r, 0, ready+5, 1, false); got != ready+5 {
		t.Errorf("resident re-access = %v, want %v", got, ready+5)
	}
	if m.ResidentBytes() != 2<<20 {
		t.Errorf("ResidentBytes = %d", m.ResidentBytes())
	}
}

func TestDemandRacesInFlightPrefetch(t *testing.T) {
	m, _, stats := newTestManager(1 << 30)
	r, _ := m.Register(64 << 20) // 32 chunks
	drain := m.PrefetchRegion(r, 0)
	if drain <= 0 {
		t.Fatalf("drain = %v", drain)
	}
	// Demand the last chunk long before its prefetch arrival: the access
	// faults and waits for the in-flight transfer.
	last := r.NumChunks() - 1
	arr := r.arrival[last]
	before := stats.FaultBatches
	got := m.DemandChunk(r, last, 10, 1, false)
	if got < arr {
		t.Errorf("demand completed at %v before in-flight arrival %v", got, arr)
	}
	if stats.FaultBatches != before+1 {
		t.Errorf("racing demand should raise a fault batch")
	}
	// Demand well after arrival: free.
	if got := m.DemandChunk(r, last, arr+100, 1, false); got != arr+100 {
		t.Errorf("post-arrival access should not stall")
	}
}

func TestPrefetchRegionStreamsInOrder(t *testing.T) {
	m, _, stats := newTestManager(1 << 30)
	r, _ := m.Register(16 << 20)
	m.PrefetchRegion(r, 0)
	if r.ResidentChunks() != r.NumChunks() {
		t.Errorf("all chunks should be resident after prefetch")
	}
	for i := 1; i < r.NumChunks(); i++ {
		if r.arrival[i] <= r.arrival[i-1] {
			t.Errorf("prefetch arrivals not increasing: chunk %d at %v, chunk %d at %v",
				i-1, r.arrival[i-1], i, r.arrival[i])
		}
	}
	if stats.PrefetchBytes != float64(16<<20) {
		t.Errorf("PrefetchBytes = %v", stats.PrefetchBytes)
	}
}

func TestRedundantPrefetchCostsBookkeepingOnly(t *testing.T) {
	m, bus, _ := newTestManager(1 << 30)
	r, _ := m.Register(32 << 20)
	end1 := m.PrefetchRegion(r, 0)
	busy1 := bus.H2D.BusyTotal()
	end2 := m.PrefetchRegion(r, end1)
	busy2 := bus.H2D.BusyTotal() - busy1
	if busy2 != 0 {
		t.Errorf("redundant prefetch should move no data, saw %v ns of link busy", busy2)
	}
	wantBookkeeping := m.cfg.PrefetchCallNs + float64(32<<20)/float64(1<<30)*m.cfg.ResidentPrefetchNsPerGB
	if got := end2 - end1; got < wantBookkeeping*0.99 || got > wantBookkeeping*1.01 {
		t.Errorf("redundant prefetch driver time = %v, want ~%v", got, wantBookkeeping)
	}
}

func TestWritebackDirty(t *testing.T) {
	m, _, stats := newTestManager(1 << 30)
	r, _ := m.Register(8 << 20)
	m.PrefetchRegion(r, 0)
	m.MarkDirty(r, 0, 3<<20) // chunks 0 and 1
	end := m.WritebackPartial(r, 100, r.Size)
	if end <= 100 {
		t.Errorf("writeback should take time")
	}
	if stats.WritebackBytes != float64(4<<20) {
		t.Errorf("WritebackBytes = %v, want 4MB (two dirty chunks)", stats.WritebackBytes)
	}
	// Second writeback: nothing dirty.
	if got := m.WritebackPartial(r, end, r.Size); got != end {
		t.Errorf("clean writeback should be free")
	}
	m.MarkDirty(r, 0, 0) // no-op
	if got := m.WritebackPartial(r, end, r.Size); got != end {
		t.Errorf("zero-length dirty mark should not dirty anything")
	}
}

func TestEvictionLRU(t *testing.T) {
	// Capacity of 3 chunks; two 2-chunk regions force eviction.
	cap3 := int64(6 << 20)
	m, _, stats := newTestManager(cap3)
	a, _ := m.Register(4 << 20)
	b, _ := m.Register(4 << 20)
	t0 := m.DemandChunk(a, 0, 0, 1, false)
	t1 := m.DemandChunk(a, 1, t0, 1, false)
	t2 := m.DemandChunk(b, 0, t1, 1, false)
	if m.ResidentBytes() != 6<<20 {
		t.Fatalf("ResidentBytes = %d, want full capacity", m.ResidentBytes())
	}
	// Next demand must evict the LRU chunk: a[0].
	m.DemandChunk(b, 1, t2, 1, false)
	if a.Resident(0) {
		t.Error("LRU chunk a[0] should have been evicted")
	}
	if !a.Resident(1) || !b.Resident(0) || !b.Resident(1) {
		t.Error("wrong victim evicted")
	}
	if stats.EvictedBytes != float64(2<<20) {
		t.Errorf("EvictedBytes = %v", stats.EvictedBytes)
	}
	if m.ResidentBytes() > cap3 {
		t.Errorf("resident %d exceeds capacity %d", m.ResidentBytes(), cap3)
	}
}

func TestEvictionWritesBackDirtyVictims(t *testing.T) {
	m, _, stats := newTestManager(2 << 20) // single chunk capacity
	a, _ := m.Register(2 << 20)
	b, _ := m.Register(2 << 20)
	end := m.DemandChunk(a, 0, 0, 1, false)
	m.MarkDirty(a, 0, 1)
	m.DemandChunk(b, 0, end, 1, false)
	if stats.WritebackBytes == 0 {
		t.Error("evicting a dirty chunk must write it back")
	}
	if a.Resident(0) {
		t.Error("dirty victim should be evicted after writeback")
	}
}

// Property: random demand/prefetch sequences never exceed capacity and
// keep resident accounting consistent.
func TestQuickResidencyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		capacity := int64(4+rng.Intn(8)) << 20
		m, _, _ := newTestManager(capacity)
		var regions []*Region
		for i := 0; i < 3; i++ {
			r, err := m.Register(int64(1+rng.Intn(6)) << 20)
			if err != nil {
				t.Fatal(err)
			}
			regions = append(regions, r)
		}
		now := 0.0
		for step := 0; step < 200; step++ {
			r := regions[rng.Intn(len(regions))]
			switch rng.Intn(3) {
			case 0:
				now = m.DemandChunk(r, rng.Intn(r.NumChunks()), now, 1, rng.Intn(2) == 0)
			case 1:
				now = m.PrefetchRegion(r, now)
			case 2:
				m.MarkDirty(r, int64(rng.Intn(int(r.Size))), int64(rng.Intn(1<<20)))
				now = m.WritebackPartial(r, now, r.Size)
			}
			if m.ResidentBytes() > capacity {
				t.Fatalf("resident %d exceeds capacity %d", m.ResidentBytes(), capacity)
			}
			var sum int64
			for _, reg := range regions {
				for i := 0; i < reg.NumChunks(); i++ {
					if reg.Resident(i) {
						sum += m.chunkSize(reg, i)
					}
				}
			}
			if sum != m.ResidentBytes() {
				t.Fatalf("resident accounting drift: per-chunk %d vs counter %d", sum, m.ResidentBytes())
			}
			// The indexed bookkeeping must agree with the per-chunk truth
			// arrays it summarizes.
			for ri, reg := range regions {
				chunks, bytes, dirty := 0, int64(0), 0
				for i := 0; i < reg.NumChunks(); i++ {
					if reg.Resident(i) {
						chunks++
						bytes += m.chunkSize(reg, i)
					}
					if dirtyBit(reg, i) {
						dirty++
					}
				}
				if chunks != reg.ResidentChunks() || bytes != reg.ResidentBytes() || dirty != reg.DirtyChunks() {
					t.Fatalf("region %d index drift: chunks %d/%d bytes %d/%d dirty %d/%d",
						ri, chunks, reg.ResidentChunks(), bytes, reg.ResidentBytes(), dirty, reg.DirtyChunks())
				}
				// The bitmap covers exactly the region's chunks: no bit is
				// set past the last one.
				if len(reg.dirty) != dirtyWords(reg.NumChunks()) {
					t.Fatalf("region %d: %d bitmap words for %d chunks", ri, len(reg.dirty), reg.NumChunks())
				}
				for i := reg.NumChunks(); i < 64*len(reg.dirty); i++ {
					if dirtyBit(reg, i) {
						t.Fatalf("region %d: dirty bit %d set past the last chunk %d", ri, i, reg.NumChunks()-1)
					}
				}
			}
		}
		for _, r := range regions {
			if err := m.Unregister(r); err != nil {
				t.Fatal(err)
			}
		}
		if m.ResidentBytes() != 0 {
			t.Fatalf("resident bytes leaked after unregister: %d", m.ResidentBytes())
		}
	}
}
