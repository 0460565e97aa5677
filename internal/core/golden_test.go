package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// -update regenerates every golden file from the current code. Only use
// it to capture goldens BEFORE a refactor whose output must stay
// byte-identical; regenerating afterwards would defeat the pin.
var updateGoldens = flag.Bool("update", false, "rewrite golden files from current output")

// Golden byte-identity tests for the O(1) eviction refactor. Every
// golden was captured from the pre-refactor code (the full-scan
// evictor, now retained as uvm.SetReferenceEviction's reference path),
// so a byte-for-byte match here proves the indexed bookkeeping changed
// no simulated timing, counter, or rendered digit:
//
//   - testdata/golden_oversub_default: the oversub sweep on the old
//     default ratio grid {0.25 .. 1.3}, pinning the refactor itself;
//   - golden_oversub: the old engine run on the DefaultOversubRatios
//     grid, pinning the denser default separately from the
//     data-structure change;
//   - golden_fig12/fig13: sweeps whose workloads evict under UVM
//     pressure, covering the demand/prefetch/writeback paths.
//
// The last three live in figureGoldens, where internal/serve's golden
// table reads them through its figure dispatch; the tests here reach
// the same bytes through the Runner API alone.
const figureGoldens = "../serve/testdata"

// checkGolden compares got against the golden file at path, or rewrites
// it under -update. A mismatch reports the first divergent byte.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Errorf("%s: output diverges from pre-refactor golden at byte %d\n got: %q\nwant: %q",
		path, i, got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// oversubGolden pins r's oversub sweep over ratios against base.txt
// (text) and base.json (JSON).
func oversubGolden(t *testing.T, r *Runner, ratios []float64, base string) {
	t.Helper()
	study, err := r.Oversubscription(cuda.UVMPrefetch, ratios, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, base+".txt", study.Render())
	js, err := RenderJSON(study.Doc())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, base+".json", js)
}

// sweepGolden pins a launch-parameter sweep the same way.
func sweepGolden(t *testing.T, sw *Sweep, figure, tag, base string) {
	t.Helper()
	checkGolden(t, base+".txt", sw.Render(figure))
	js, err := RenderJSON(sw.Doc(tag))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, base+".json", js)
}

var oldOversubRatios = []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.3}

func TestGoldenOversubOldGrid(t *testing.T) {
	oversubGolden(t, NewRunner(), oldOversubRatios, filepath.Join("testdata", "golden_oversub_default"))
}

func TestGoldenOversubDenseGrid(t *testing.T) {
	oversubGolden(t, NewRunner(), DefaultOversubRatios, filepath.Join(figureGoldens, "golden_oversub"))
}

func fig12Golden(t *testing.T, r *Runner) {
	t.Helper()
	r.Iterations = 2
	sw, err := r.SweepThreads(workloads.Large, []int{1024, 512, 256, 128, 64, 32})
	if err != nil {
		t.Fatal(err)
	}
	sweepGolden(t, sw, "Figure 12", "fig12", filepath.Join(figureGoldens, "golden_fig12"))
}

func fig13Golden(t *testing.T, r *Runner) {
	t.Helper()
	r.Iterations = 2
	sw, err := r.SweepShared(workloads.Large, []float64{2, 4, 8, 16, 32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	sweepGolden(t, sw, "Figure 13", "fig13", filepath.Join(figureGoldens, "golden_fig13"))
}

func TestGoldenFig12(t *testing.T) { fig12Golden(t, NewRunner()) }

func TestGoldenFig13(t *testing.T) { fig13Golden(t, NewRunner()) }
