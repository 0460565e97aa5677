// Package store is the persistent, content-addressed cell store under
// the experiment harness's in-memory cell cache. Every measurement cell
// of the figure grid is a pure function of a hashable key — workload
// kind, setup, size, iteration count, seed and the hardware profile's
// fingerprint (see internal/core's cache invariant) — so its result can
// be written to disk once and replayed forever, across process restarts
// and across machines. The store is what turns sweep breadth from a
// wall-clock cost into a caching knob: warm reruns of `uvmbench all`
// and a restarted server skip simulation entirely, because equal cells
// share one address.
//
// Design rules, in order of importance:
//
//   - A wrong result is worse than no result. Reads are
//     corruption-tolerant: any defect — unreadable file, truncated or
//     garbage JSON, schema mismatch, an entry whose embedded key does
//     not match the address it was read from — degrades to a cache
//     miss, never to a bad cell. The simulator recomputes and the bad
//     entry is overwritten.
//   - Writes are atomic. An entry is marshalled to a temp file in the
//     store directory and renamed into place, so a crashed or
//     concurrent writer can leave stale temp files but never a
//     half-written entry under a valid address.
//   - The address is versioned. SchemaVersion names the store's
//     subdirectory, participates in the key fingerprint and is embedded
//     in every entry, so a format change leaves old entries unread
//     instead of misreading them.
//   - Exact round trip. encoding/json writes every float64 of a cell in
//     Go's shortest exact form, so load(save(result)) is bit-identical
//     and rendered figures are byte-identical whether a cell was
//     simulated or replayed from disk.
//
// The package knows nothing about the simulator. An entry is an
// envelope, {"schema":2,"key":{...},"cell":...}: the store checks the
// schema and the key, and the cell is the caller's own value in its own
// JSON encoding, which the store neither inspects nor validates.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"uvmasim/internal/metrics"
)

// SchemaVersion is the on-disk format version. Bump it when Key, the
// envelope or a caller's cell encoding change shape; Open then uses a
// fresh v<SchemaVersion> directory and old entries are never read.
// Version 1 stored a field-by-field mirror of the cell; version 2 stores
// the cell's own encoding.
const SchemaVersion = 2

// Key addresses one measurement cell, in memory and on disk: internal/core
// keys its in-process cell cache by it too. Enums are carried as their
// canonical names, so the key is self-describing in artifacts and on
// disk.
type Key struct {
	// Kind is the workload name, or a study-specific cell id such as
	// "sweep:fig11-blocks:4096" or "oversub:1.2:2".
	Kind  string `json:"kind"`
	Setup string `json:"setup"`
	Size  string `json:"size"`
	Iters int    `json:"iters"`
	Seed  int64  `json:"seed"`
	// ProfileFP is the profile.Fingerprint of the SystemConfig the cell
	// was measured under; it is what keeps equal workloads on different
	// machines at different addresses.
	ProfileFP string `json:"profile_fp"`
}

// appendCanonical appends the bytes the fingerprint hashes to b. '|'
// cannot occur in any field: kinds are workload names or ':'-joined ids,
// setups and sizes are lowercase identifiers, and the profile fingerprint
// is hex.
func (k Key) appendCanonical(b []byte) []byte {
	b = append(b, "cellstore/v"...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	for _, f := range [...]string{k.Kind, k.Setup, k.Size} {
		b = append(append(b, '|'), f...)
	}
	b = strconv.AppendInt(append(b, '|'), int64(k.Iters), 10)
	b = strconv.AppendInt(append(b, '|'), k.Seed, 10)
	return append(append(b, '|'), k.ProfileFP...)
}

// Hash returns the 64-bit FNV-1a digest of the canonical key, the basis
// of Fingerprint; it depends only on the key's fields, so it is stable
// across processes and machines.
func (k Key) Hash() uint64 {
	var buf [128]byte
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, c := range k.appendCanonical(buf[:0]) {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a prime
	}
	return h
}

// Fingerprint returns the 16-hex-digit content address of the cell,
// used as the on-disk file name.
func (k Key) Fingerprint() string {
	var b [16]byte
	h := k.Hash()
	for i := range b {
		b[i] = "0123456789abcdef"[h>>(60-4*i)&0xf]
	}
	return string(b[:])
}

// entry is one stored cell: the key it answers for (embedded so a
// misfiled or tampered entry is detectable) and the caller's cell value,
// encoded by encoding/json as the caller's own type.
type entry struct {
	Schema int `json:"schema"`
	Key    Key `json:"key"`
	Cell   any `json:"cell"`
}

// Store is one tier of cell persistence. Get decodes the cell stored
// for key into cell, a non-nil pointer, and reports whether the entry
// answers key; implementations must degrade every failure mode to
// false, after which cell's contents are unspecified. Both methods must
// be safe for concurrent use — cells fan out across the parallel
// executor.
type Store interface {
	Get(key Key, cell any) bool
	Put(key Key, cell any) error
}

// Dir is the on-disk store: one JSON file per cell, named by the cell's
// fingerprint, under a schema-versioned subdirectory.
type Dir struct {
	root string // <user dir>/v<SchemaVersion>

	// Metric hooks, nil (discard-all) until Instrument attaches a
	// registry. Updates are single atomic ops, so Put/Get stay as
	// concurrent-safe as before.
	writes     *metrics.Counter
	writeBytes *metrics.Counter
}

// Instrument registers the store's write-traffic counters with reg:
// entries and bytes committed to disk. Call before serving traffic; a
// nil registry leaves the store unobserved at zero overhead.
func (d *Dir) Instrument(reg *metrics.Registry) {
	d.writes = reg.Counter("uvmbench_store_writes_total",
		"Cell documents committed to the persistent store.")
	d.writeBytes = reg.Counter("uvmbench_store_written_bytes_total",
		"Bytes of cell documents committed to the persistent store.")
}

// Open creates (if needed) and validates the store directory, probing
// writability so a bad -cache-dir fails at startup, not after a full
// simulation run.
func Open(dir string) (*Dir, error) {
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	probe, err := os.CreateTemp(root, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Dir{root: root}, nil
}

// Path returns the entry file a key addresses (exposed for tests and
// tooling; the layout is part of the store's public contract only
// within one SchemaVersion).
func (d *Dir) Path(key Key) string { return d.path(key.Fingerprint()) }

// path returns the entry file of fingerprint fp. The root is already
// clean and fp holds no separator, so this is filepath.Join's result.
func (d *Dir) path(fp string) string {
	return d.root + string(filepath.Separator) + fp + ".json"
}

// Get decodes the cell stored for key into cell, a non-nil pointer.
// Every failure mode — missing file, unreadable file, truncated or
// garbage JSON, schema drift, an entry whose embedded key disagrees
// with its address, a null cell or one that does not decode into
// cell's type — returns false so the caller recomputes; the store never
// serves a wrong result. The cell decodes in the same pass as the
// envelope, so after a false return cell may hold partial data.
func (d *Dir) Get(key Key, cell any) bool {
	b, err := os.ReadFile(d.Path(key))
	if err != nil {
		return false
	}
	e := entry{Cell: cell}
	if err := json.Unmarshal(b, &e); err != nil {
		return false
	}
	// A null cell clears the envelope's field instead of decoding.
	return e.Schema == SchemaVersion && e.Key == key && e.Cell != nil
}

// Put atomically writes cell as the entry for key: marshal to a temp
// file in the store directory, fsync-free rename into place. Concurrent
// writers of the same key race benignly — both write identical bytes
// (cells are pure functions of their key) and rename is atomic.
func (d *Dir) Put(key Key, cell any) error {
	fp := key.Fingerprint()
	b, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Cell: cell})
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", fp, err)
	}
	tmp, err := os.CreateTemp(d.root, ".tmp-"+fp+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.path(fp)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	d.writes.Inc()
	d.writeBytes.Add(uint64(len(b)))
	return nil
}

// Len counts the entries currently on disk (tooling and tests).
func (d *Dir) Len() int {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}
