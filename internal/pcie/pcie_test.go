package pcie

import "testing"

func TestEfficiencyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	if !(cfg.BulkEfficiency > cfg.PrefetchEfficiency &&
		cfg.PrefetchEfficiency > cfg.FaultEfficiency) {
		t.Errorf("efficiency tiers must order bulk > prefetch > fault: %+v", cfg)
	}
}

func TestCopyDirectionsIndependent(t *testing.T) {
	b := New(DefaultConfig())
	h2d := b.CopyH2DBulk(0, 1<<20, 1)
	d2h := b.CopyD2HBulk(0, 1<<20, 1)
	if h2d != d2h {
		t.Errorf("full-duplex copies should complete together: %v vs %v", h2d, d2h)
	}
	// Same-direction copies serialize.
	second := b.CopyH2DBulk(0, 1<<20, 1)
	if second <= h2d {
		t.Errorf("same-direction copy should queue: %v <= %v", second, h2d)
	}
}

func TestModeSpeeds(t *testing.T) {
	b := New(DefaultConfig())
	const n = 64 << 20
	bulk := b.CopyH2DBulk(0, n, 1)
	b2 := New(DefaultConfig())
	pf := b2.PrefetchChunk(0, n)
	b3 := New(DefaultConfig())
	fault := b3.MigrateOnDemand(0, n, 1)
	if !(bulk < pf && pf < fault) {
		t.Errorf("transfer times must order bulk < prefetch < fault: %v %v %v", bulk, pf, fault)
	}
}

// TestBusyAccounting pins the bus's busy meters: the total is both
// directions' summed busy time, a window sums the busy time of both
// directions inside it, and Reset clears both.
func TestBusyAccounting(t *testing.T) {
	b := New(DefaultConfig())
	b.OpenWindow(0)
	h2d := b.CopyH2DBulk(0, 1<<20, 1)
	d2h := b.Writeback(0, 1<<20)
	if got := b.BusyTotal(); got != h2d+d2h {
		t.Errorf("busy total %v, want %v", got, h2d+d2h)
	}
	if got := b.CloseWindow(1); got != 2 {
		t.Errorf("window [0, 1) sees %v ns busy, want 1 per direction", got)
	}
	b.Reset()
	if b.BusyTotal() != 0 {
		t.Error("reset should clear accounting")
	}
}

func TestHostEffSlowsCopy(t *testing.T) {
	b1, b2 := New(DefaultConfig()), New(DefaultConfig())
	fast := b1.CopyH2DBulk(0, 1<<24, 1.0)
	slow := b2.CopyH2DBulk(0, 1<<24, 0.5)
	if slow <= fast {
		t.Errorf("derated host efficiency should slow the copy: %v <= %v", slow, fast)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth should panic")
		}
	}()
	New(Config{})
}
