package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"uvmasim/internal/cuda"
	"uvmasim/internal/store"
	"uvmasim/internal/workloads"
)

// Determinism tests for the intra-cell iteration fan-out: splitting a
// cell's iterations across worker contexts must leave every observable
// output — per-iteration breakdowns, the final-iteration counters
// snapshot, whole figure documents — byte-identical to the serial loop.
// The tests also cover the static cost model that orders cell dispatch.

// TestFanoutCountersMatchSerial pins the Result.Counters contract: the
// counters snapshot comes from the final iteration, whether that
// iteration ran on the caller's context (serial) or on the last block's
// worker context (fan-out). Every setup is checked because each drives
// a different counter mix (fault counts, prefetch traffic, memcpy
// bytes).
func TestFanoutCountersMatchSerial(t *testing.T) {
	w, err := workloads.ByName("vector_rand")
	if err != nil {
		t.Fatal(err)
	}
	serial := testRunner(6)
	serial.Parallelism = 1
	for _, setup := range cuda.Registered() {
		setup := setup
		t.Run(setup.String(), func(t *testing.T) {
			want, err := serial.measureCell(w, setup, workloads.Large)
			if err != nil {
				t.Fatal(err)
			}
			// 4 splits the 6 iterations unevenly; 16 exceeds them, so
			// blocks degenerate to single iterations.
			for _, par := range []int{2, 4, 16} {
				fan := testRunner(6)
				fan.Parallelism = par
				got, err := fan.measureCell(w, setup, workloads.Large)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Counters, want.Counters) {
					t.Errorf("par=%d: fan-out counters differ from serial final-iteration counters", par)
				}
				if !reflect.DeepEqual(got.Breakdowns, want.Breakdowns) {
					t.Errorf("par=%d: fan-out breakdowns differ from serial", par)
				}
			}
		})
	}
}

// TestFanoutFigureDeterminism runs a whole study — cell-level fan-out,
// iteration-level fan-out, and LPT scheduling all active — and requires
// the document to match the fully serial run exactly.
func TestFanoutFigureDeterminism(t *testing.T) {
	ws := mustWorkloads(t, "vector_seq", "gemm")
	serial := testRunner(4)
	serial.Parallelism = 1
	want, err := serial.BreakdownComparison(ws, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		fan := testRunner(4)
		fan.Parallelism = par
		got, err := fan.BreakdownComparison(ws, workloads.Large)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("par=%d: parallel study differs from serial", par)
		}
	}
}

// TestFanoutSweepDeterminism covers the sensitivity-sweep cell path
// (shared-seed derivation, no counters) under fan-out.
func TestFanoutSweepDeterminism(t *testing.T) {
	serial := testRunner(3)
	serial.Parallelism = 1
	want, err := serial.SweepBlocks(workloads.Small, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	fan := testRunner(3)
	fan.Parallelism = 4
	got, err := fan.SweepBlocks(workloads.Small, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fan-out sweep differs from serial")
	}
}

// TestLptOrderIsPermutation checks the scheduling order is a valid,
// deterministic permutation: every index exactly once, most expensive
// first, ties kept in submission order.
func TestLptOrderIsPermutation(t *testing.T) {
	r := testRunner(3)
	r.Parallelism = 4
	costs := []float64{1, 5, 3, 5, 2, 0.5, 9}
	order := r.lptOrder(len(costs), func(i int) float64 { return costs[i] })
	if want := []int{6, 1, 3, 2, 4, 0, 5}; !reflect.DeepEqual(order, want) {
		t.Errorf("lptOrder = %v, want %v", order, want)
	}
	r.Parallelism = 1
	if got := r.lptOrder(len(costs), func(i int) float64 { return costs[i] }); got != nil {
		t.Errorf("serial executor should skip ordering, got %v", got)
	}
}

// TestStaticCostModelRanks sanity-checks the static cost model's ranks:
// bigger footprints cost more, managed setups cost more per byte than
// explicit copies, and oversubscription points cost more as the ratio
// grows, with a jump once they must evict.
func TestStaticCostModelRanks(t *testing.T) {
	cfg := cuda.DefaultSystemConfig()
	small := cellSeconds(cfg, cuda.UVM, workloads.Small, 30)
	large := cellSeconds(cfg, cuda.UVM, workloads.Large, 30)
	if small >= large {
		t.Errorf("Small (%g) should cost less than Large (%g)", small, large)
	}
	std := cellSeconds(cfg, cuda.Standard, workloads.Super, 30)
	uvm := cellSeconds(cfg, cuda.UVM, workloads.Super, 30)
	if std >= uvm {
		t.Errorf("explicit Super (%g) should cost less than managed Super (%g)", std, uvm)
	}
	if one := cellSeconds(cfg, cuda.UVM, workloads.Large, 1); one >= large {
		t.Errorf("one iteration (%g) should cost less than thirty (%g)", one, large)
	}
	ratios := DefaultOversubRatios
	for i := 1; i < len(ratios); i++ {
		if lo, hi := oversubSeconds(cfg, ratios[i-1], 2), oversubSeconds(cfg, ratios[i], 2); lo >= hi {
			t.Errorf("oversub ratio %g (%g) should cost less than %g (%g)", ratios[i-1], lo, ratios[i], hi)
		}
	}
	if under, over := oversubSeconds(cfg, 1.0, 2), oversubSeconds(cfg, 1.05, 2); over < 2*under {
		t.Errorf("evicting point (%g) should cost well above the in-capacity one (%g)", over, under)
	}
}

// dispatchStore is a cell store that records the cell kinds the executor
// looks up, in lookup order, and always misses. The first lookup waits
// (bounded) for the second, so with two workers the first two entries
// are exactly the first two cells dispatched, whichever worker records
// first.
type dispatchStore struct {
	mu    sync.Mutex
	kinds []string
	both  chan struct{}
}

func (s *dispatchStore) Get(key store.Key, _ any) bool {
	s.mu.Lock()
	s.kinds = append(s.kinds, key.Kind)
	n := len(s.kinds)
	s.mu.Unlock()
	switch n {
	case 1:
		select {
		case <-s.both:
		case <-time.After(10 * time.Second):
		}
	case 2:
		close(s.both)
	}
	return false
}

func (s *dispatchStore) Put(store.Key, any) error { return nil }

// TestOversubDispatchesHighestRatioFirst pins the LPT order of the
// oversubscription sweep, which the uvm_pressure benchmark's latency
// depends on: the most expensive points — the highest ratios — are
// dispatched first, so they do not straggle at the end of the sweep.
func TestOversubDispatchesHighestRatioFirst(t *testing.T) {
	st := &dispatchStore{both: make(chan struct{})}
	r := testRunner(1)
	r.Parallelism = 2
	r.Store = st
	if _, err := r.Oversubscription(cuda.UVMPrefetch, DefaultOversubRatios, 2); err != nil {
		t.Fatal(err)
	}
	if len(st.kinds) != len(DefaultOversubRatios) {
		t.Fatalf("%d store lookups, want one per ratio (%d)", len(st.kinds), len(DefaultOversubRatios))
	}
	first := []string{st.kinds[0], st.kinds[1]}
	sort.Strings(first)
	if want := []string{"oversub:1.75:2", "oversub:2:2"}; !reflect.DeepEqual(first, want) {
		t.Errorf("first two dispatched cells = %v, want the two highest ratios %v", first, want)
	}
}
