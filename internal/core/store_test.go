package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/sched"
	"uvmasim/internal/store"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// storeRunner returns a low-iteration runner backed by the given store.
func storeRunner(s store.Store) *Runner {
	r := testRunner(2)
	r.Store = s
	return r
}

// renderSuite runs a mixed study set — a breakdown grid, a counter
// study, an oversubscription sweep and a multi-GPU schedule grid — and
// returns the concatenated rendered output. It covers every cell shape
// the store must round-trip.
func renderSuite(t *testing.T, r *Runner) string {
	t.Helper()
	study, err := r.BreakdownComparison(workloads.Micro()[:3], workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := r.CounterComparison([]string{"gemm", "lud"}, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := r.Oversubscription(cuda.UVMPrefetch, []float64{0.5, 1.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, workloads.Large,
		3, []int{1, 2}, []topo.Kind{topo.PCIeSwitch, topo.NVLink}, sched.LeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	return study.Doc("fig7").Text() + cs.Doc("fig9").Text() + ov.Doc().Text() + mg.Doc().Text()
}

// TestStoreWarmRerun is the tentpole's core guarantee: a second process
// (modelled as a fresh Runner with an empty in-memory cache) backed by
// the same store renders byte-identical output without simulating.
func TestStoreWarmRerun(t *testing.T) {
	dir, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := storeRunner(dir)
	want := renderSuite(t, cold)
	if cold.StoreHits() != 0 {
		t.Errorf("cold run should not hit the store, got %d hits", cold.StoreHits())
	}
	if cold.StoreMisses() != cold.CacheMisses() {
		t.Errorf("every memory miss should consult the store: %d store misses vs %d cache misses",
			cold.StoreMisses(), cold.CacheMisses())
	}
	if dir.Len() == 0 {
		t.Fatal("cold run should populate the store")
	}

	warm := storeRunner(dir)
	got := renderSuite(t, warm)
	if got != want {
		t.Errorf("warm rerun diverges from cold run:\n%s\nvs\n%s", got, want)
	}
	if warm.StoreMisses() != 0 {
		t.Errorf("warm rerun simulated %d cells, want 0", warm.StoreMisses())
	}
	if warm.StoreHits() != warm.CacheMisses() {
		t.Errorf("warm rerun: %d store hits vs %d memory misses", warm.StoreHits(), warm.CacheMisses())
	}
}

// TestStoreCorruptionRecomputes: damaging a stored entry degrades to
// recomputation with identical output, never a wrong figure.
func TestStoreCorruptionRecomputes(t *testing.T) {
	dir, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := renderSuite(t, storeRunner(dir))

	// Corrupt every entry: truncated JSON on disk.
	root := filepath.Dir(dir.Path(store.Key{}))
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		p := filepath.Join(root, e.Name())
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := storeRunner(dir)
	if got := renderSuite(t, r); got != want {
		t.Errorf("post-corruption rerun diverges:\n%s\nvs\n%s", got, want)
	}
	if r.StoreHits() != 0 {
		t.Errorf("corrupted entries served %d hits", r.StoreHits())
	}
	if r.StoreMisses() != r.CacheMisses() {
		t.Errorf("corrupted entries should all miss: %d misses vs %d cache misses",
			r.StoreMisses(), r.CacheMisses())
	}
	// And the recompute healed the store.
	warm := storeRunner(dir)
	if got := renderSuite(t, warm); got != want {
		t.Error("healed store diverges")
	}
	if warm.StoreMisses() != 0 {
		t.Errorf("healed store still simulated %d cells", warm.StoreMisses())
	}
}

// TestStoreReplaysResultExactly: a cell replayed from the store equals
// the simulated one field for field, including the Setup and Size that
// the stored cell leaves to its key.
func TestStoreReplaysResultExactly(t *testing.T) {
	dir, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Micro()[0]
	want, err := storeRunner(dir).Measure(w, cuda.UVMPrefetch, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	warm := storeRunner(dir)
	got, err := warm.Measure(w, cuda.UVMPrefetch, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StoreHits() != 1 {
		t.Fatalf("warm measure: %d store hits, want 1", warm.StoreHits())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed cell differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreEmptyCellRecomputes: an entry whose envelope answers the key
// but whose cell holds no breakdowns is a miss. The cell simulates, and
// the write-back repairs the entry.
func TestStoreEmptyCellRecomputes(t *testing.T) {
	dir, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Micro()[0]
	cold := storeRunner(dir)
	want, err := cold.Measure(w, cuda.UVM, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	key := cold.cellKey(w.Name(), cuda.UVM, workloads.Small)
	if err := dir.Put(key, &Result{Workload: w.Name()}); err != nil {
		t.Fatal(err)
	}

	r := storeRunner(dir)
	got, err := r.Measure(w, cuda.UVM, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.StoreHits() != 0 || r.StoreMisses() != 1 {
		t.Errorf("empty cell: %d store hits, %d misses, want 0 and 1", r.StoreHits(), r.StoreMisses())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recomputed cell differs from the original")
	}
	var healed Result
	if !dir.Get(key, &healed) || len(healed.Breakdowns) != len(want.Breakdowns) {
		t.Errorf("write-back did not repair the entry: %d breakdowns", len(healed.Breakdowns))
	}
}
