package counters

import (
	"math"
	"testing"
)

func TestInstMix(t *testing.T) {
	var m InstMix
	m.Add(InstMix{Mem: 1, FP: 2, Int: 3, Ctrl: 4})
	m.Add(InstMix{Mem: 10, FP: 20, Int: 30, Ctrl: 40})
	if m.Mem != 11 || m.FP != 22 || m.Int != 33 || m.Ctrl != 44 {
		t.Errorf("unexpected mix %+v", m)
	}
	if m.Total() != 110 {
		t.Errorf("Total = %v, want 110", m.Total())
	}
}

func TestL1Rates(t *testing.T) {
	s := L1Stats{LoadAccesses: 100, LoadMisses: 25, StoreAccesses: 50, StoreMisses: 10}
	if got := s.LoadMissRate(); got != 0.25 {
		t.Errorf("LoadMissRate = %v", got)
	}
	if got := s.StoreMissRate(); got != 0.2 {
		t.Errorf("StoreMissRate = %v", got)
	}
	var empty L1Stats
	if empty.LoadMissRate() != 0 || empty.StoreMissRate() != 0 {
		t.Errorf("idle cache should report zero miss rates")
	}
}

func TestOccupancyWeighting(t *testing.T) {
	var s Set
	s.RecordKernel(100, 0.2)
	s.RecordKernel(300, 0.6)
	want := (100*0.2 + 300*0.6) / 400
	if got := s.Occupancy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Occupancy = %v, want %v", got, want)
	}
	if s.KernelBusyNs != 400 {
		t.Errorf("KernelBusyNs = %v, want 400", s.KernelBusyNs)
	}
}

func TestOccupancyIdle(t *testing.T) {
	var s Set
	if s.Occupancy() != 0 {
		t.Errorf("idle occupancy should be 0")
	}
}

func TestRecordKernelNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	var s Set
	s.RecordKernel(-1, 0.5)
}

func TestMergeAndReset(t *testing.T) {
	var a, b Set
	a.RecordKernel(10, 1.0)
	a.H2DBytes = 5
	a.UVM.PageFaults = 3
	b.RecordKernel(10, 0.0)
	b.D2HBytes = 7
	b.L1.LoadAccesses = 2
	a.Merge(&b)
	if a.Occupancy() != 0.5 {
		t.Errorf("merged occupancy = %v, want 0.5", a.Occupancy())
	}
	if a.H2DBytes != 5 || a.D2HBytes != 7 || a.UVM.PageFaults != 3 || a.L1.LoadAccesses != 2 {
		t.Errorf("merge lost fields: %+v", a)
	}
	a.Reset()
	if a.Occupancy() != 0 || a.H2DBytes != 0 || a.Inst.Total() != 0 {
		t.Errorf("reset incomplete: %+v", a)
	}
}

func TestUVMStatsAdd(t *testing.T) {
	var u UVMStats
	u.Add(UVMStats{PageFaults: 1, FaultBatches: 2, MigratedBytes: 3, PrefetchBytes: 4, WritebackBytes: 5, EvictedBytes: 6})
	u.Add(UVMStats{PageFaults: 1})
	if u.PageFaults != 2 || u.FaultBatches != 2 || u.MigratedBytes != 3 ||
		u.PrefetchBytes != 4 || u.WritebackBytes != 5 || u.EvictedBytes != 6 {
		t.Errorf("unexpected UVM stats %+v", u)
	}
}
