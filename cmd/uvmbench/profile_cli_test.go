package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmasim/internal/profile"
)

// TestProfilesSubcommand covers the inventory verbs: bare list, show and
// dump for a built-in machine.
func TestProfilesSubcommand(t *testing.T) {
	out := capture(t, "profiles")
	for _, name := range profile.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("profiles list lacks %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "(default)") {
		t.Errorf("profiles list should mark the default:\n%s", out)
	}

	show := capture(t, "profiles", "show", "v100-16g-pcie3")
	if !strings.Contains(show, "fingerprint") || !strings.Contains(show, "16 GB HBM") {
		t.Errorf("profiles show output incomplete:\n%s", show)
	}

	if err := run([]string{"profiles", "show"}); err == nil {
		t.Error("profiles show without a name should error")
	}
	if err := run([]string{"profiles", "frobnicate"}); err == nil {
		t.Error("unknown profiles verb should error")
	}
}

// TestProfileDumpRoundTrip is the end-to-end form of the dump/load
// regression: `profiles dump` piped back in as -profile must resolve to
// the identical machine (same fingerprint in `profiles show`).
func TestProfileDumpRoundTrip(t *testing.T) {
	dump := capture(t, "profiles", "dump", "grace-hopper-c2c")
	path := filepath.Join(t.TempDir(), "gh.json")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}

	orig := capture(t, "profiles", "show", "grace-hopper-c2c")
	loaded := capture(t, "profiles", "show", path)
	if orig != loaded {
		t.Errorf("dumped profile shows differently after reload:\n%s\n---\n%s", orig, loaded)
	}
}

// TestProfileFlag runs an experiment under a non-default machine and
// checks the numbers actually move.
func TestProfileFlag(t *testing.T) {
	a100 := capture(t, "-i", "1", "table3") // profile-independent artifact works under default
	if a100 == "" {
		t.Fatal("empty table3 output")
	}
	def := capture(t, "-i", "1", "fig14")
	v100 := capture(t, "-profile", "v100-16g-pcie3", "-i", "1", "fig14")
	if def == v100 {
		t.Error("fig14 output identical on A100 and V100 profiles")
	}

	if err := run([]string{"-profile", "no-such-gpu", "-i", "1", "table3"}); err == nil {
		t.Error("unknown profile should error")
	}
}

// TestValueSuggestions pins the did-you-mean UX on every value-typed
// flag: misspelled workload, size, setup and profile names each name the
// nearest valid value.
func TestValueSuggestions(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "gem", "-i", "1", "trace"}, `did you mean "gemm"?`},
		{[]string{"-size", "larg", "-i", "1", "fig8"}, `did you mean "large"?`},
		{[]string{"-setup", "asink", "-i", "1", "trace"}, `did you mean "async"?`},
		{[]string{"-profile", "a100-40g-pci4", "-i", "1", "table3"}, `did you mean "a100-40g-pcie4"?`},
		{[]string{"-profiles", "v100-16g", "-i", "1", "compare-profiles"}, `did you mean "v100-16g-pcie3"?`},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("%v: expected an error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %q should suggest %s", c.args, err.Error(), c.want)
		}
	}
}

// TestCompareProfiles covers the cross-profile study end to end: default
// machine set, an explicit -profiles list, and par-invariance of the
// rendered table.
func TestCompareProfiles(t *testing.T) {
	out := capture(t, "-i", "1", "-size", "tiny", "-workload", "vector_seq", "compare-profiles")
	for _, name := range profile.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("compare-profiles output lacks %s:\n%s", name, out)
		}
	}

	pair := capture(t, "-i", "1", "-size", "tiny", "-workload", "vector_seq",
		"-profiles", "a100-40g-pcie4, grace-hopper-c2c", "compare-profiles")
	if !strings.Contains(pair, "grace-hopper-c2c") || strings.Contains(pair, "v100-16g-pcie3") {
		t.Errorf("-profiles list not honoured:\n%s", pair)
	}

	serial := capture(t, "-i", "2", "-size", "tiny", "-workload", "vector_seq", "-par", "1", "-json", "compare-profiles")
	parallel := capture(t, "-i", "2", "-size", "tiny", "-workload", "vector_seq", "-par", "8", "-json", "compare-profiles")
	if serial != parallel {
		t.Errorf("compare-profiles JSON differs between -par 1 and -par 8")
	}
}

// TestFeasibilityGating: on the 16 GB V100, fig4 drops the mega class
// with a note and fig6 (defined at mega) reports a skip instead of
// failing, so `all` completes on small-memory machines.
func TestFeasibilityGating(t *testing.T) {
	fig4 := capture(t, "-profile", "v100-16g-pcie3", "-i", "1", "fig4")
	if !strings.Contains(fig4, "size classes fit") {
		t.Errorf("fig4 on V100 should note dropped classes:\n%.200s", fig4)
	}
	if strings.Contains(fig4, "mega") {
		t.Errorf("fig4 on V100 should not include mega:\n%s", fig4)
	}

	fig6 := capture(t, "-profile", "v100-16g-pcie3", "-i", "1", "fig6")
	if !strings.Contains(fig6, "skipped") {
		t.Errorf("fig6 on V100 should be skipped:\n%s", fig6)
	}

	// The default machine fits every class: no note, no skip.
	fig6Def := capture(t, "-i", "1", "fig6")
	if strings.Contains(fig6Def, "skipped") {
		t.Error("fig6 on the default profile should run")
	}
}

// TestSizeOverrideFeasibility: a -size that an explicit-copy setup
// cannot allocate on a machine the figure runs fails upfront with the
// shared size check, not with an out-of-memory error after simulating;
// managed-only studies at the same size still run.
func TestSizeOverrideFeasibility(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "v100-16g-pcie3", "-size", "mega", "-i", "1", "fig8"},
		{"-profile", "v100-16g-pcie3", "-size", "mega", "-i", "1", "-setups", "async,uvm", "micro"},
		{"-profile", "v100-16g-pcie3", "-size", "mega", "-i", "1", "all"},
		{"-size", "mega", "-i", "1", "compare-profiles"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "does not fit profile v100-16g-pcie3") {
			t.Errorf("%v: err = %v, want the upfront size check", args, err)
		}
	}
	out := capture(t, "-profile", "v100-16g-pcie3", "-size", "mega", "-i", "1", "-setups", "uvm", "micro")
	if !strings.Contains(out, "mega input") {
		t.Errorf("managed-only micro at mega should run on V100:\n%.300s", out)
	}
}

// TestTinyManagedCapacityProfiles: a profile whose managed capacity is
// below one migration chunk used to pass validation and then panic in the
// evictor on the first managed chunk, killing a CLI run or a whole
// server. Now the profile fails to load — on the CLI before anything
// simulates, and at serve start-up before the listener opens — with an
// error naming the fields.
func TestTinyManagedCapacityProfiles(t *testing.T) {
	dir := t.TempDir()
	tiny := func(name string, mutate func(p *profile.Profile)) string {
		p, err := profile.Lookup(profile.DefaultName)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		var buf bytes.Buffer
		if err := profile.Save(&buf, p); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hbm := tiny("tiny-hbm.json", func(p *profile.Profile) { p.Config.GPU.HBMCapacity = 1 << 20 })
	frac := tiny("tiny-frac.json", func(p *profile.Profile) { p.Config.ManagedCapacityFraction = 0.00001 })
	wantErr := func(args []string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%v: accepted a managed capacity below one chunk", args)
		}
		for _, field := range []string{"gpu.HBMCapacity", "ManagedCapacityFraction", "uvm.ChunkBytes"} {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%v: error does not name %s: %v", args, field, err)
			}
		}
	}
	for _, args := range [][]string{
		{"-profile", hbm, "-i", "1", "-size", "tiny", "fig7"},
		{"-profile", frac, "-i", "1", "oversub"},
	} {
		wantErr(args, run(args))
	}

	// A regression would start serving and never return.
	args := []string{"-profile", hbm, "-addr", "127.0.0.1:0", "serve"}
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	select {
	case err := <-done:
		wantErr(args, err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve started with a profile whose managed capacity is below one chunk")
	}
}
