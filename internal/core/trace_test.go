package core

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads"
)

// TestTraceRunMatchesMeasure pins the tracer's observer property at the
// harness level: a traced run reports exactly the breakdown the
// untraced Measure computes for the same cell's first iteration, and
// actually records a timeline.
func TestTraceRunMatchesMeasure(t *testing.T) {
	r := testRunner(2)
	w := mustWorkloads(t, "vector_seq")[0]
	for _, setup := range []cuda.Setup{cuda.Standard, cuda.UVMPrefetchAsync} {
		res, err := r.Measure(w, setup, workloads.Small)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := r.TraceRun("vector_seq", setup, workloads.Small)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Breakdown != res.Breakdowns[0] {
			t.Errorf("%s: traced breakdown %+v != untraced first iteration %+v",
				setup, tr.Breakdown, res.Breakdowns[0])
		}
		if tr.Tracer.Len() == 0 {
			t.Errorf("%s: trace recorded no events", setup)
		}
		if !tr.Tracer.SpansMonotonic() {
			t.Errorf("%s: non-monotonic spans", setup)
		}
	}
}

// TestTraceHookBypassesCache checks that a runner with a hook installed
// never serves (or populates) cell-cache entries: the hook must fire for
// every iteration even when the cell was measured before.
func TestTraceHookBypassesCache(t *testing.T) {
	r := testRunner(2)
	w := mustWorkloads(t, "vector_seq")[0]
	if _, err := r.Measure(w, cuda.Standard, workloads.Small); err != nil {
		t.Fatal(err)
	}
	// The hook fires from the executor's workers, so it counts atomically.
	var calls atomic.Int32
	r.TraceHook = func(name string, setup cuda.Setup, size workloads.Size, iter int) *trace.Tracer {
		calls.Add(1)
		return nil
	}
	if _, err := r.Measure(w, cuda.Standard, workloads.Small); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("hook fired %d times, want one per iteration (2)", n)
	}
	// With the hook removed the warm cache serves the cell again.
	r.TraceHook = nil
	misses := r.CacheMisses()
	if _, err := r.Measure(w, cuda.Standard, workloads.Small); err != nil {
		t.Fatal(err)
	}
	if r.CacheMisses() != misses {
		t.Error("untraced re-measure after hook removal missed the cache")
	}
}

// TestTraceSetupsDeterministicAcrossParallelism records the same
// timeline set serially and with a wide pool; the Chrome exports must be
// byte-identical (each cell binds its own tracer).
func TestTraceSetupsDeterministicAcrossParallelism(t *testing.T) {
	exports := make([][]byte, 2)
	for i, par := range []int{1, 8} {
		r := testRunner(1)
		r.Parallelism = par
		results, err := r.TraceSetups("vector_seq", workloads.Small, r.setups())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, res := range results {
			if err := res.Tracer.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
		}
		exports[i] = append([]byte(nil), buf.Bytes()...)
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Error("trace exports differ between Parallelism 1 and 8")
	}
}

// TestFigureDocsMarshal checks the JSON face of the studies: every doc
// must serialize to one valid JSON value carrying the figure name and
// paper-named enums.
func TestFigureDocsMarshal(t *testing.T) {
	r := testRunner(2)
	f, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	study, err := r.BreakdownComparison(mustWorkloads(t, "vector_seq"), workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []FigureDoc{Table3Doc(), f.Doc(), study.Doc("fig8")} {
		s, err := RenderJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid([]byte(s)) {
			t.Fatalf("doc %s is not valid JSON", doc.Figure)
		}
	}
	s, err := RenderJSON(study.Doc("fig8"))
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Figure string `json:"figure"`
		Data   struct {
			Size   string   `json:"size"`
			Setups []string `json:"setups"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(s), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Data.Size != "small" {
		t.Errorf("size marshals as %q, want paper name", parsed.Data.Size)
	}
	if len(parsed.Data.Setups) != 5 || parsed.Data.Setups[4] != "uvm_prefetch_async" {
		t.Errorf("setups marshal as %v, want paper names", parsed.Data.Setups)
	}
}
