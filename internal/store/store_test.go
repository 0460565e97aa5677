package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(kind string) Key {
	return Key{
		Kind:      kind,
		Setup:     "uvm_prefetch",
		Size:      "large",
		Iters:     30,
		Seed:      1,
		ProfileFP: "00f73c969e7b2c9f",
	}
}

func testDoc(key Key) CellDoc {
	return CellDoc{
		Schema:   SchemaVersion,
		Key:      key,
		Workload: key.Kind,
		Breakdowns: []Breakdown{
			{AllocNs: 1.25e6, MemcpyNs: 3.0000000000000004e7, KernelNs: 2.5e7, OverheadNs: 2.1e8, TotalNs: 2.662500000000001e8},
			{AllocNs: 1.3e6, MemcpyNs: 2.9e7, KernelNs: 2.5e7, OverheadNs: 2.1e8, TotalNs: 2.653e8},
		},
		Counters: Counters{
			MemInst:           1 << 20,
			FPInst:            3.1415926535897931,
			PageFaults:        42,
			OccupancyIntegral: 0.875 * 2.5e7,
			KernelBusyNs:      2.5e7,
		},
	}
}

func TestDirRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("gemm")
	if _, ok := d.Get(key); ok {
		t.Fatal("empty store should miss")
	}
	want := testDoc(key)
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok {
		t.Fatal("stored cell should hit")
	}
	// Exact float round trip is what makes warm renders byte-identical;
	// compare the full documents including awkward values.
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("round trip not exact:\n got %s\nwant %s", gb, wb)
	}
	if d.Len() != 1 {
		t.Errorf("store should hold 1 entry, got %d", d.Len())
	}
}

func TestFingerprintSeparatesKeys(t *testing.T) {
	base := testKey("gemm")
	variants := []Key{
		{Kind: "lud", Setup: base.Setup, Size: base.Size, Iters: base.Iters, Seed: base.Seed, ProfileFP: base.ProfileFP},
		{Kind: base.Kind, Setup: "standard", Size: base.Size, Iters: base.Iters, Seed: base.Seed, ProfileFP: base.ProfileFP},
		{Kind: base.Kind, Setup: base.Setup, Size: "super", Iters: base.Iters, Seed: base.Seed, ProfileFP: base.ProfileFP},
		{Kind: base.Kind, Setup: base.Setup, Size: base.Size, Iters: 1, Seed: base.Seed, ProfileFP: base.ProfileFP},
		{Kind: base.Kind, Setup: base.Setup, Size: base.Size, Iters: base.Iters, Seed: 99, ProfileFP: base.ProfileFP},
		{Kind: base.Kind, Setup: base.Setup, Size: base.Size, Iters: base.Iters, Seed: base.Seed, ProfileFP: "deadbeefdeadbeef"},
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for _, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("key %+v collides with another key", v)
		}
		seen[fp] = true
	}
	if got := base.Fingerprint(); got != testKey("gemm").Fingerprint() {
		t.Errorf("fingerprint not deterministic: %s", got)
	}
	if len(base.Fingerprint()) != 16 {
		t.Errorf("fingerprint should be 16 hex digits, got %q", base.Fingerprint())
	}
}

// TestDirCorruptionTolerance pins the store's prime directive: every
// defect class degrades to a miss, and a subsequent Put repairs the
// entry.
func TestDirCorruptionTolerance(t *testing.T) {
	key := testKey("gemm")
	doc := testDoc(key)

	corruptions := map[string]func(t *testing.T, d *Dir){
		"truncated": func(t *testing.T, d *Dir) {
			b, _ := os.ReadFile(d.Path(key))
			os.WriteFile(d.Path(key), b[:len(b)/2], 0o644)
		},
		"garbage": func(t *testing.T, d *Dir) {
			os.WriteFile(d.Path(key), []byte("not json at all"), 0o644)
		},
		"empty": func(t *testing.T, d *Dir) {
			os.WriteFile(d.Path(key), nil, 0o644)
		},
		"schema-drift": func(t *testing.T, d *Dir) {
			bad := doc
			bad.Schema = SchemaVersion + 1
			b, _ := json.Marshal(bad)
			os.WriteFile(d.Path(key), b, 0o644)
		},
		"misfiled-key": func(t *testing.T, d *Dir) {
			// A valid doc for a different cell stored under this address
			// (e.g. a copied or renamed file) must not be served.
			other := testKey("lud")
			bad := testDoc(other)
			b, _ := json.Marshal(bad)
			os.WriteFile(d.Path(key), b, 0o644)
		},
		"empty-payload": func(t *testing.T, d *Dir) {
			bad := doc
			bad.Breakdowns = nil
			b, _ := json.Marshal(bad)
			os.WriteFile(d.Path(key), b, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			d, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put(key, doc); err != nil {
				t.Fatal(err)
			}
			corrupt(t, d)
			if _, ok := d.Get(key); ok {
				t.Fatal("corrupted entry must read as a miss, not a result")
			}
			// The store self-heals: recomputing and re-putting repairs it.
			if err := d.Put(key, doc); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get(key); !ok {
				t.Fatal("re-put after corruption should hit again")
			}
		})
	}
}

// TestDirAtomicWrite: a Put leaves no temp litter, and the entry file
// appears only complete.
func TestDirAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("gemm")
	if err := d.Put(key, testDoc(key)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "v1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") || strings.HasPrefix(e.Name(), ".probe-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("expected exactly the entry file, got %d files", len(entries))
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	// A path whose parent is a file cannot become a store directory.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub")); err == nil {
		t.Error("Open should fail when the path cannot be created")
	}
	if _, err := Open(f); err == nil {
		t.Error("Open should fail when the path is a file")
	}
}
