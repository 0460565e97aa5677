package core

import (
	"errors"
	"sync"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/store"
	"uvmasim/internal/workloads"
)

// TestForEachInlineFastPath pins the saturated-pool contract: when no
// spare worker token can be acquired — effective parallelism 1, a
// zero-value Runner, or a nested fan-out whose pool is drained — forEach
// runs inline on the calling goroutine, visits every index in order, and
// reports the lowest-index error exactly like the legacy serial loop.
func TestForEachInlineFastPath(t *testing.T) {
	t.Run("parallelism1", func(t *testing.T) {
		r := testRunner(1)
		r.Parallelism = 1
		var got []int
		if err := r.forEach(5, func(i int) error {
			got = append(got, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("inline path visited %v, want in-order 0..4", got)
			}
		}
	})

	t.Run("zeroValueRunner", func(t *testing.T) {
		var r Runner
		r.Parallelism = 4
		n := 0
		if err := r.forEach(3, func(i int) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("ran %d of 3 calls", n)
		}
	})

	t.Run("drainedPool", func(t *testing.T) {
		r := testRunner(1)
		r.Parallelism = 4
		// Drain every spare token: the next fan-out cannot spawn helpers
		// and must fall back to the inline loop. The append below is
		// unsynchronized on purpose — the race detector turns any
		// accidental parallel execution into a test failure.
		for r.exec.acquire(r.parallelism()) {
		}
		var got []int
		if err := r.forEach(6, func(i int) error {
			got = append(got, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("drained-pool fan-out visited %v, want in-order 0..5", got)
			}
		}
	})

	t.Run("firstError", func(t *testing.T) {
		r := testRunner(1)
		r.Parallelism = 1
		boom := errors.New("boom")
		calls := 0
		err := r.forEach(5, func(i int) error {
			calls++
			if i >= 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got err %v, want boom", err)
		}
		if calls != 3 {
			t.Fatalf("inline path made %d calls, want 3 (stop at first error)", calls)
		}
	})
}

// TestForEachInlineAllocFree: the fast path must not pay for the fan-out
// machinery (error slice, atomic cursor, goroutines) it does not use.
func TestForEachInlineAllocFree(t *testing.T) {
	r := testRunner(1)
	r.Parallelism = 1
	fn := func(i int) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := r.forEach(8, fn); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("inline forEach allocates %.1f per call, want 0", allocs)
	}
}

// TestForEachSaturatedDeterminism: a study running entirely on the
// drained-pool inline path renders byte-identically to the serial and
// wide-pool paths (TestParallelDeterminism covers those two).
func TestForEachSaturatedDeterminism(t *testing.T) {
	render := func(r *Runner) string {
		study, err := r.BreakdownComparison(workloads.Micro()[:4], workloads.Large)
		if err != nil {
			t.Fatal(err)
		}
		return study.Doc("fig7").Text()
	}
	serial := testRunner(3)
	serial.Parallelism = 1
	want := render(serial)

	drained := testRunner(3)
	drained.Parallelism = 8
	for drained.exec.acquire(drained.parallelism()) {
	}
	if got := render(drained); got != want {
		t.Errorf("drained-pool output diverges from serial\nserial:\n%s\ndrained:\n%s", want, got)
	}
}

// TestCellKeyFollowsConfig pins the memoized profile digest in cell
// keys: a key carries profile.Fingerprint of the Runner's own config, so
// a Runner copy (which shares the cache, and with it the memo) whose
// Config changes gets a new key and simulates instead of hitting the
// original's cells, while the unchanged original keeps its key.
func TestCellKeyFollowsConfig(t *testing.T) {
	r := NewRunner()
	r.Iterations = 1
	computes := 0
	compute := func() (Result, error) {
		computes++
		return Result{}, nil
	}
	lookup := func(r *Runner) store.Key {
		t.Helper()
		if _, err := r.cached("k", cuda.UVM, workloads.Tiny, compute); err != nil {
			t.Fatal(err)
		}
		return r.cellKey("k", cuda.UVM, workloads.Tiny)
	}

	base := lookup(r)
	if base.ProfileFP != profile.Fingerprint(r.Config) {
		t.Fatalf("key digest %s, profile.Fingerprint %s", base.ProfileFP, profile.Fingerprint(r.Config))
	}
	if again := lookup(r); again != base || computes != 1 {
		t.Fatalf("repeat lookup: key %+v (was %+v), %d computes, want 1", again, base, computes)
	}

	c := *r
	c.Config.UVM.FaultBatchLatencyNs *= 2
	changed := lookup(&c)
	if changed.ProfileFP == base.ProfileFP || changed.ProfileFP != profile.Fingerprint(c.Config) {
		t.Fatalf("changed config: key digest %s, original %s, profile.Fingerprint %s",
			changed.ProfileFP, base.ProfileFP, profile.Fingerprint(c.Config))
	}
	if computes != 2 {
		t.Fatalf("changed config hit the original's cell: %d computes, want 2", computes)
	}
	if again := lookup(r); again != base || computes != 2 {
		t.Fatalf("original after the copy: key %+v (was %+v), %d computes, want 2", again, base, computes)
	}

	// The memo is shared by every Runner of the family, which looks keys
	// up from concurrent cells.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := *r
			c.Config.UVM.FaultBatchLatencyNs += float64(g % 3)
			if got, want := c.cellKey("k", cuda.UVM, workloads.Tiny).ProfileFP, profile.Fingerprint(c.Config); got != want {
				t.Errorf("goroutine %d: key digest %s, profile.Fingerprint %s", g, got, want)
			}
		}(g)
	}
	wg.Wait()
}
