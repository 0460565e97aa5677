package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// testCell stands in for a caller's cell: the store persists any value
// encoding/json round-trips, and never looks inside it.
type testCell struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

func newTestCell(key Key) testCell {
	return testCell{
		Name: key.Kind,
		// Awkward floats: exact round trip is what makes warm renders
		// byte-identical.
		Values: []float64{1.25e6, 3.0000000000000004e7, 2.662500000000001e8, 3.1415926535897931, 0.875 * 2.5e7},
	}
}

// writeEntry stores raw bytes at key's address, bypassing Put.
func writeEntry(t *testing.T, d *Dir, key Key, b []byte) {
	t.Helper()
	if err := os.WriteFile(d.Path(key), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDirRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("gemm")
	var got testCell
	if d.Get(key, &got) {
		t.Fatal("empty store should miss")
	}
	want := newTestCell(key)
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if !d.Get(key, &got) {
		t.Fatal("stored cell should hit")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip not exact:\n got %+v\nwant %+v", got, want)
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

// TestFingerprintPinned pins one key's address, so a change to the
// canonical bytes or the hash cannot orphan the stores already written.
func TestFingerprintPinned(t *testing.T) {
	k := Key{Kind: "gemm", Setup: "uvm_prefetch", Size: "large", Iters: 30, Seed: 123456789, ProfileFP: "1889ec37a00fd81c"}
	if got, want := k.Fingerprint(), "be73b45a671c7ef9"; got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
	if got, want := k.Hash(), uint64(0xbe73b45a671c7ef9); got != want {
		t.Errorf("hash %#x, want %#x", got, want)
	}
}

// TestPathAllocs bounds the allocations of building an entry's address:
// the fingerprint string and the path string.
func TestPathAllocs(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("gemm")
	if n := testing.AllocsPerRun(100, func() { d.Path(key) }); n > 2 {
		t.Errorf("Dir.Path allocates %v times, want at most 2", n)
	}
	if want := filepath.Join(d.root, key.Fingerprint()+".json"); d.Path(key) != want {
		t.Errorf("Dir.Path %q, want %q", d.Path(key), want)
	}
}

// TestDirCorruptionTolerance pins the store's prime directive: every
// defect class degrades to a miss, and a subsequent Put repairs the
// entry.
func TestDirCorruptionTolerance(t *testing.T) {
	key := testKey("gemm")
	cell := newTestCell(key)
	envelope := func(schema int, k Key, c any) []byte {
		b, err := json.Marshal(entry{Schema: schema, Key: k, Cell: c})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	corruptions := map[string]func(t *testing.T, d *Dir){
		"truncated": func(t *testing.T, d *Dir) {
			b, _ := os.ReadFile(d.Path(key))
			writeEntry(t, d, key, b[:len(b)/2])
		},
		"garbage": func(t *testing.T, d *Dir) {
			writeEntry(t, d, key, []byte("not json at all"))
		},
		"empty": func(t *testing.T, d *Dir) {
			writeEntry(t, d, key, nil)
		},
		"schema-drift": func(t *testing.T, d *Dir) {
			writeEntry(t, d, key, envelope(SchemaVersion+1, key, cell))
		},
		"misfiled-key": func(t *testing.T, d *Dir) {
			// A valid entry for a different cell stored under this
			// address (e.g. a copied or renamed file) must not be served.
			other := testKey("lud")
			writeEntry(t, d, key, envelope(SchemaVersion, other, newTestCell(other)))
		},
		"empty-payload": func(t *testing.T, d *Dir) {
			writeEntry(t, d, key, envelope(SchemaVersion, key, nil))
		},
		"mistyped-cell": func(t *testing.T, d *Dir) {
			writeEntry(t, d, key, envelope(SchemaVersion, key, map[string]string{"values": "x"}))
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			d, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put(key, cell); err != nil {
				t.Fatal(err)
			}
			corrupt(t, d)
			var got testCell
			if d.Get(key, &got) {
				t.Fatal("corrupted entry must read as a miss, not a result")
			}
			// The store self-heals: recomputing and re-putting repairs it.
			if err := d.Put(key, cell); err != nil {
				t.Fatal(err)
			}
			if !d.Get(key, &got) || !reflect.DeepEqual(got, cell) {
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
	if err := d.Put(key, newTestCell(key)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion)))
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

// FuzzStoreGet writes arbitrary bytes at a key's address. Get must never
// panic, and it may answer only for an entry of this schema whose
// embedded key is that address. The committed seeds are a valid entry,
// each corruption class above, an entry without a cell and a schema-1
// entry.
func FuzzStoreGet(f *testing.F) {
	d, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := testKey("gemm")
	f.Fuzz(func(t *testing.T, b []byte) {
		writeEntry(t, d, key, b)
		var cell testCell
		if !d.Get(key, &cell) {
			return
		}
		var e struct {
			Schema int `json:"schema"`
			Key    Key `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Schema != SchemaVersion || e.Key != key {
			t.Fatalf("Get answered for %q: schema %d, key %+v, err %v", b, e.Schema, e.Key, err)
		}
	})
}
