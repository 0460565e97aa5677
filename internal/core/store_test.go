package core

import (
	"os"
	"path/filepath"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/sched"
	"uvmasim/internal/store"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// storeRunner returns a low-iteration runner backed by the given store.
func storeRunner(s CellStore) *Runner {
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
	return study.Render("Figure 7") + cs.RenderFig9() + ov.Render() + mg.Render()
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
