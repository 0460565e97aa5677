package core

import (
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/sched"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// TestParallelDeterminism is the executor's core guarantee: the rendered
// output of a study is byte-identical between the legacy serial path and
// a wide worker pool. It exercises the full micro suite at Large (the
// Figure 7 grid) plus a sensitivity sweep and a distribution study. CI
// runs this under -race, which also makes it the harness's data-race
// canary.
func TestParallelDeterminism(t *testing.T) {
	type renderFn func(r *Runner) (string, error)
	cases := map[string]renderFn{
		"breakdown": func(r *Runner) (string, error) {
			study, err := r.BreakdownComparison(workloads.Micro(), workloads.Large)
			if err != nil {
				return "", err
			}
			return study.Doc("fig7").Text(), nil
		},
		"distributions": func(r *Runner) (string, error) {
			study, err := r.Distributions(workloads.Micro()[:3], []workloads.Size{workloads.Small, workloads.Large})
			if err != nil {
				return "", err
			}
			return study.Fig4Doc().Text() + study.Fig5Doc().Text(), nil
		},
		"sweep": func(r *Runner) (string, error) {
			sw, err := r.SweepThreads(workloads.Large, []int{1024, 256, 64})
			if err != nil {
				return "", err
			}
			return sw.Doc("fig12").Text(), nil
		},
		"counters": func(r *Runner) (string, error) {
			study, err := r.CounterComparison([]string{"gemm", "lud"}, workloads.Large)
			if err != nil {
				return "", err
			}
			return study.Doc("fig9").Text() + study.Doc("fig10").Text(), nil
		},
		"oversub": func(r *Runner) (string, error) {
			study, err := r.Oversubscription(cuda.UVMPrefetch, []float64{0.5, 1.1}, 2)
			if err != nil {
				return "", err
			}
			return study.Doc().Text(), nil
		},
		"multigpu": func(r *Runner) (string, error) {
			study, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, workloads.Large,
				4, []int{1, 2}, []topo.Kind{topo.PCIeSwitch, topo.NVLink}, sched.LeastLoaded)
			if err != nil {
				return "", err
			}
			return study.Doc().Text(), nil
		},
	}
	for name, render := range cases {
		t.Run(name, func(t *testing.T) {
			serial := testRunner(3)
			serial.Parallelism = 1
			wide := testRunner(3)
			wide.Parallelism = 8

			want, err := render(serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := render(wide)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("parallel output diverges from serial\nserial:\n%s\nparallel:\n%s", want, got)
			}
		})
	}
}

// TestCacheTransparency: enabling the cell cache must not change a
// study's rendered output, even when studies repeat cells.
func TestCacheTransparency(t *testing.T) {
	ws := mustWorkloads(t, "vector_seq", "saxpy")
	render := func(r *Runner) string {
		study, err := r.BreakdownComparison(ws, workloads.Large)
		if err != nil {
			t.Fatal(err)
		}
		return study.Doc("fig7").Text()
	}
	cached := testRunner(2)
	uncached := testRunner(2)
	uncached.Cache = false
	first := render(cached)
	if got := render(cached); got != first {
		t.Error("second cached run diverges from first")
	}
	if cached.CacheHits() == 0 {
		t.Error("repeated study should hit the cell cache")
	}
	if got := render(uncached); got != first {
		t.Error("uncached run diverges from cached run")
	}
	if uncached.CacheHits() != 0 || uncached.CacheMisses() != 0 {
		t.Error("disabled cache should record no traffic")
	}
}

// TestCacheDedupesCounterStudy pins the fig9/fig10 fix: the second
// CounterComparison over the same cells must be served entirely from the
// cell cache instead of re-simulating the counter study.
func TestCacheDedupesCounterStudy(t *testing.T) {
	r := testRunner(2)
	names := []string{"gemm", "lud", "yolov3"}
	first, err := r.CounterComparison(names, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	misses := r.CacheMisses()
	if misses == 0 {
		t.Fatal("first counter study should populate the cache")
	}
	if hits := r.CacheHits(); hits != 0 {
		t.Fatalf("first counter study should not hit the cache, got %d hits", hits)
	}
	second, err := r.CounterComparison(names, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CacheMisses(); got != misses {
		t.Errorf("second counter study re-simulated %d cells", got-misses)
	}
	if got, want := r.CacheHits(), uint64(len(first.Rows)); got != want {
		t.Errorf("second counter study cache hits = %d, want %d", got, want)
	}
	if got, want := second.Doc("fig9").Text(), first.Doc("fig9").Text(); got != want {
		t.Errorf("cached counter study diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestCacheKeyedOnRunnerState: changing the seed, iteration count, or
// system config must miss the cache rather than replay stale cells.
func TestCacheKeyedOnRunnerState(t *testing.T) {
	r := testRunner(2)
	w := mustWorkloads(t, "vector_seq")[0]
	base, err := r.Measure(w, cuda.Standard, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	r.BaseSeed = 99
	reseeded, err := r.Measure(w, cuda.Standard, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHits() != 0 {
		t.Error("seed change should not hit the cache")
	}
	if base.Breakdowns[0].Total == reseeded.Breakdowns[0].Total {
		t.Error("different seeds should draw different noise")
	}
	r.Config.PCIe.BandwidthGBs *= 2
	if _, err := r.Measure(w, cuda.Standard, workloads.Small); err != nil {
		t.Fatal(err)
	}
	if r.CacheHits() != 0 {
		t.Error("config change should not hit the cache")
	}
	if got, want := r.CacheMisses(), uint64(3); got != want {
		t.Errorf("cache misses = %d, want %d", got, want)
	}
}

// TestSweepPoint covers the positional-index replacement used by the
// thread-sweep benchmark and tests.
func TestSweepPoint(t *testing.T) {
	r := testRunner(1)
	sw, err := r.SweepThreads(workloads.Small, []int{256, 64, 32})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sw.Point(64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Param != 64 || len(p.BySetup) == 0 {
		t.Errorf("Point(64) returned %+v", p)
	}
	if _, err := sw.Point(999); err == nil {
		t.Error("Point should reject unmeasured parameter values")
	}
}
