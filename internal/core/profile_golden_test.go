package core

import (
	"path/filepath"
	"strings"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/workloads"
)

// Golden guard for the profile refactor: running on the default profile
// (explicitly, through NewRunnerFor) must reproduce the same committed
// goldens the implicit-config code produced, byte for byte. Together
// with profile.TestDefaultMatchesPaperTestbed this proves the profile
// layer is a pure re-plumbing of the paper's testbed.

func TestGoldenDefaultProfileOversub(t *testing.T) {
	oversubGolden(t, NewRunnerFor(profile.Default()), oldOversubRatios, filepath.Join("testdata", "golden_oversub_default"))
}

func TestGoldenDefaultProfileOversubDense(t *testing.T) {
	oversubGolden(t, NewRunnerFor(profile.Default()), DefaultOversubRatios, filepath.Join(figureGoldens, "golden_oversub"))
}

func TestGoldenDefaultProfileFig12(t *testing.T) { fig12Golden(t, NewRunnerFor(profile.Default())) }

func TestGoldenDefaultProfileFig13(t *testing.T) { fig13Golden(t, NewRunnerFor(profile.Default())) }

// TestCacheKeysSeparateProfiles is the cross-profile cache-collision
// test: one runner measuring the same cell under two different system
// configs must compute twice (two distinct fingerprinted keys) and get
// two different answers — a collision would silently report one
// machine's numbers for the other.
func TestCacheKeysSeparateProfiles(t *testing.T) {
	v100, err := profile.Lookup("v100-16g-pcie3")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner()
	r.Iterations = 3
	a, err := r.Measure(w, cuda.Standard, workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}

	sub := *r
	sub.Config = v100.Config
	b, err := sub.Measure(w, cuda.Standard, workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}

	if hits, misses := r.CacheHits(), r.CacheMisses(); hits != 0 || misses != 2 {
		t.Fatalf("want 0 hits / 2 misses across profiles, got %d / %d", hits, misses)
	}
	if a.Breakdowns[0].Total == b.Breakdowns[0].Total {
		t.Fatal("A100 and V100 produced identical totals; cache likely collided")
	}

	// Re-measuring either profile must now hit.
	if _, err := r.Measure(w, cuda.Standard, workloads.Tiny); err != nil {
		t.Fatal(err)
	}
	if hits := r.CacheHits(); hits != 1 {
		t.Fatalf("same-profile re-measure should hit the cache, got %d hits", hits)
	}
}

// TestCompareProfilesDeterministic checks the cross-profile study is
// par-invariant and covers every requested machine in request order.
func TestCompareProfilesDeterministic(t *testing.T) {
	ps := profile.Builtins()

	run := func(par int) string {
		r := NewRunner()
		r.Iterations = 3
		r.Parallelism = par
		study, err := r.CompareProfiles(ps, "vector_seq", workloads.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		return study.Render()
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("compare-profiles output differs between -par 1 and -par 8:\n%s\n---\n%s", serial, parallel)
	}
	for _, p := range ps {
		if !strings.Contains(serial, p.Name) {
			t.Errorf("study output lacks profile %s", p.Name)
		}
	}
}

func TestCompareProfilesRejectsInvalid(t *testing.T) {
	bad := profile.Default()
	bad.Config.PCIe.BandwidthGBs = -1
	r := NewRunner()
	r.Iterations = 1
	if _, err := r.CompareProfiles([]profile.Profile{bad}, "vector_seq", workloads.Tiny); err == nil {
		t.Fatal("CompareProfiles accepted an invalid profile")
	}
	if _, err := r.CompareProfiles(nil, "vector_seq", workloads.Tiny); err == nil {
		t.Fatal("CompareProfiles accepted an empty profile list")
	}
	if _, err := r.CompareProfiles(profile.Builtins(), "no_such_workload", workloads.Tiny); err == nil {
		t.Fatal("CompareProfiles accepted an unknown workload")
	}
}
