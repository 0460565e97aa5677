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
