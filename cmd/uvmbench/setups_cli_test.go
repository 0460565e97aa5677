package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSetupsFlag covers the study-subset flag end to end: a named subset
// narrows every column of a figure, the new transfer modes resolve by
// registered name, and unknown names are rejected upfront with a
// nearest-name hint.
func TestSetupsFlag(t *testing.T) {
	out := capture(t, "-i", "1", "-size", "tiny",
		"-setups", "standard,uvm,uvm_zerocopy,uvm_smcopy", "fig7")
	for _, want := range []string{"standard", "uvm_zerocopy", "uvm_smcopy"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 subset output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "uvm_prefetch_async") {
		t.Errorf("excluded setup leaked into the subset output:\n%s", out)
	}
	// A subset without explicit copies has no memcpy to save: text
	// prints n/a and -json encodes null instead of failing on NaN.
	noCopy := []string{"-i", "1", "-size", "tiny", "-setups", "uvm_zerocopy,uvm_smcopy"}
	if out := capture(t, append(noCopy, "micro")...); !strings.Contains(out, "uvm_smcopy n/a") {
		t.Errorf("undefined memcpy saving should print n/a:\n%s", out)
	}
	for _, fig := range []string{"micro", "fig7", "fig8"} {
		if out := capture(t, append(noCopy, "-json", fig)...); !strings.Contains(out, `"mean_memcpy_savings": null`) {
			t.Errorf("%s: undefined memcpy saving should encode as null", fig)
		}
	}
}

// TestSetupsFlagErrors: unknown and duplicate names fail before any
// simulation, with a suggestion for near-misses.
func TestSetupsFlagErrors(t *testing.T) {
	err := run([]string{"-setups", "uvm_zercopy", "fig7"})
	if err == nil || !strings.Contains(err.Error(), "uvm_zerocopy") {
		t.Errorf("typo should suggest uvm_zerocopy, got %v", err)
	}
	err = run([]string{"-setups", "uvm,uvm", "fig7"})
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate setups should be rejected, got %v", err)
	}
	err = run([]string{"-setups", ",", "fig7"})
	if err == nil || !strings.Contains(err.Error(), "names no setups") {
		t.Errorf("empty subset should be rejected, got %v", err)
	}
}

// TestSetupsFlagDefaultUnchanged: without -setups the figure runs the
// paper's five-setup presentation exactly — the extension modes stay out
// of default output (that is what keeps the goldens byte-identical).
func TestSetupsFlagDefaultUnchanged(t *testing.T) {
	out := capture(t, "-i", "1", "-size", "tiny", "fig7")
	if strings.Contains(out, "uvm_zerocopy") || strings.Contains(out, "uvm_smcopy") {
		t.Errorf("extension modes leaked into the default presentation:\n%s", out)
	}
	if !strings.Contains(out, "uvm_prefetch_async") {
		t.Errorf("default presentation incomplete:\n%s", out)
	}
}

// TestSetupsStoreWarmHit: the persistent cell store keys cells by setup
// name, so a warm re-run over a subset with the extension modes is
// byte-identical and served from the store.
func TestSetupsStoreWarmHit(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-i", "1", "-size", "tiny", "-cache-dir", dir,
		"-setups", "uvm,uvm_zerocopy,uvm_smcopy", "fig7"}
	cold := capture(t, args...)
	warm := capture(t, args...)
	stripFooter := func(s string) string {
		// The cache-summary footer legitimately differs cold vs warm.
		if i := strings.Index(s, "cache:"); i >= 0 {
			return s[:i]
		}
		return s
	}
	if stripFooter(cold) != stripFooter(warm) {
		t.Errorf("warm store run diverges from cold run\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range entries {
		if e.IsDir() {
			sub, _ := os.ReadDir(filepath.Join(dir, e.Name()))
			if len(sub) > 0 {
				found = true
			}
		} else {
			found = true
		}
	}
	if !found {
		t.Error("store directory is empty after a subset run")
	}
}
