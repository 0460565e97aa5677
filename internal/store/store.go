// Package store is the persistent, content-addressed cell store under
// the experiment harness's in-memory cell cache. Every measurement cell
// of the figure grid is a pure function of a hashable key — workload
// kind, setup, size, iteration count, seed and the hardware profile's
// fingerprint (see internal/core's cache invariant) — so its result can
// be written to disk once and replayed forever, across process restarts
// and across machines. The store is what turns sweep breadth from a
// wall-clock cost into a caching knob: warm reruns of `uvmbench all`
// skip simulation entirely, and shard artifacts produced on different
// machines merge into one store because equal cells share one address.
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
//   - The address is versioned. SchemaVersion participates in the key
//     fingerprint and is embedded in every document, so a format change
//     silently invalidates old entries instead of misreading them.
//   - Exact round trip. All cell payloads are float64s marshalled in
//     Go's shortest exact form, so load(save(result)) is bit-identical
//     and rendered figures are byte-identical whether a cell was
//     simulated or replayed from disk.
//
// The package deliberately knows nothing about the simulator: keys and
// documents carry plain strings and numbers, and internal/core owns the
// conversion to and from its Result type.
package store

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"uvmasim/internal/metrics"
)

// SchemaVersion is the on-disk format version. Bump it when Key or
// CellDoc change shape; old entries then miss (their fingerprints and
// embedded schema no longer match) instead of being misinterpreted.
const SchemaVersion = 1

// Key addresses one measurement cell. It mirrors internal/core's cell
// cache key field for field, with enums flattened to their canonical
// names so the key is self-describing in artifacts and on disk.
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

// canonical returns the string the fingerprint hashes. '|' cannot occur
// in any field: kinds are workload names or ':'-joined ids, setups and
// sizes are lowercase identifiers, and the profile fingerprint is hex.
func (k Key) canonical() string {
	return fmt.Sprintf("cellstore/v%d|%s|%s|%s|%d|%d|%s",
		SchemaVersion, k.Kind, k.Setup, k.Size, k.Iters, k.Seed, k.ProfileFP)
}

// Hash returns the FNV-1a digest of the canonical key. The shard
// partitioner reduces this modulo the shard count, so the partition is
// stable across processes and machines.
func (k Key) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.canonical()))
	return h.Sum64()
}

// Fingerprint returns the 16-hex-digit content address of the cell,
// used as the on-disk file name.
func (k Key) Fingerprint() string { return fmt.Sprintf("%016x", k.Hash()) }

// Breakdown mirrors cuda.Breakdown with stable snake_case keys and
// explicit ns units (the same convention as the -json figure documents).
type Breakdown struct {
	AllocNs    float64 `json:"alloc_ns"`
	MemcpyNs   float64 `json:"memcpy_ns"`
	KernelNs   float64 `json:"kernel_ns"`
	OverheadNs float64 `json:"overhead_ns"`
	TotalNs    float64 `json:"total_ns"`
}

// Counters mirrors counters.Set, including the occupancy accumulators
// that back Set.Occupancy(), so a replayed cell reports the same §6
// occupancy as a simulated one.
type Counters struct {
	MemInst  float64 `json:"mem_inst"`
	FPInst   float64 `json:"fp_inst"`
	IntInst  float64 `json:"int_inst"`
	CtrlInst float64 `json:"ctrl_inst"`

	L1LoadAccesses  float64 `json:"l1_load_accesses"`
	L1LoadMisses    float64 `json:"l1_load_misses"`
	L1StoreAccesses float64 `json:"l1_store_accesses"`
	L1StoreMisses   float64 `json:"l1_store_misses"`

	PageFaults     float64 `json:"page_faults"`
	FaultBatches   float64 `json:"fault_batches"`
	MigratedBytes  float64 `json:"migrated_bytes"`
	PrefetchBytes  float64 `json:"prefetch_bytes"`
	WritebackBytes float64 `json:"writeback_bytes"`
	EvictedBytes   float64 `json:"evicted_bytes"`
	Evictions      float64 `json:"evictions"`

	H2DBytes float64 `json:"h2d_bytes"`
	D2HBytes float64 `json:"d2h_bytes"`

	OccupancyIntegral float64 `json:"occupancy_integral"`
	KernelBusyNs      float64 `json:"kernel_busy_ns"`
}

// CellDoc is one stored cell: the key it answers for (embedded so a
// misfiled or tampered entry is detectable), the workload name of the
// measured Result, and the full measurement payload.
type CellDoc struct {
	Schema     int         `json:"schema"`
	Key        Key         `json:"key"`
	Workload   string      `json:"workload"`
	Breakdowns []Breakdown `json:"breakdowns"`
	Counters   Counters    `json:"counters"`
}

// Valid reports whether the document is a plausible answer for key:
// right schema, right embedded key, and a non-empty payload. Anything
// else is treated as corruption by Get implementations.
func (d CellDoc) Valid(key Key) bool {
	return d.Schema == SchemaVersion && d.Key == key && len(d.Breakdowns) > 0
}

// Store is one tier of cell persistence. Get returns (doc, true) only
// for an entry that passed Valid for the key; implementations must
// degrade every failure mode to (zero, false). Both methods must be
// safe for concurrent use — cells fan out across the parallel executor.
type Store interface {
	Get(key Key) (CellDoc, bool)
	Put(key Key, doc CellDoc) error
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
func (d *Dir) Path(key Key) string {
	return filepath.Join(d.root, key.Fingerprint()+".json")
}

// Get loads the cell stored for key. Every failure mode — missing file,
// unreadable file, truncated or garbage JSON, schema drift, an entry
// whose embedded key disagrees with its address — returns ok=false so
// the caller recomputes; the store never serves a wrong result.
func (d *Dir) Get(key Key) (CellDoc, bool) {
	b, err := os.ReadFile(d.Path(key))
	if err != nil {
		return CellDoc{}, false
	}
	var doc CellDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return CellDoc{}, false
	}
	if !doc.Valid(key) {
		return CellDoc{}, false
	}
	return doc, true
}

// Put atomically writes the cell for key: marshal to a temp file in the
// store directory, fsync-free rename into place. Concurrent writers of
// the same key race benignly — both write identical bytes (cells are
// pure functions of their key) and rename is atomic.
func (d *Dir) Put(key Key, doc CellDoc) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", key.Fingerprint(), err)
	}
	tmp, err := os.CreateTemp(d.root, ".tmp-"+key.Fingerprint()+"-*")
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
	if err := os.Rename(tmp.Name(), d.Path(key)); err != nil {
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

// Mem is the in-memory store used to capture shard artifacts and to
// replay them during merge. It applies the same Valid gate as Dir so a
// tampered artifact degrades to recomputation, not a wrong figure.
type Mem struct {
	mu sync.Mutex
	m  map[Key]CellDoc
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[Key]CellDoc)} }

// Get returns the captured cell for key, if valid.
func (m *Mem) Get(key Key) (CellDoc, bool) {
	m.mu.Lock()
	doc, ok := m.m[key]
	m.mu.Unlock()
	if !ok || !doc.Valid(key) {
		return CellDoc{}, false
	}
	return doc, true
}

// Put records the cell for key (last write wins; equal keys hold equal
// docs in correct use).
func (m *Mem) Put(key Key, doc CellDoc) error {
	m.mu.Lock()
	m.m[key] = doc
	m.mu.Unlock()
	return nil
}

// Len returns the number of captured cells.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Docs returns every captured cell sorted by canonical key, the
// deterministic order shard artifacts are serialized in (so artifacts
// are byte-identical at any executor parallelism).
func (m *Mem) Docs() []CellDoc {
	m.mu.Lock()
	out := make([]CellDoc, 0, len(m.m))
	for _, doc := range m.m {
		out = append(out, doc)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key.canonical() < out[j].Key.canonical()
	})
	return out
}
