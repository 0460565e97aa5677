package main

// Shard artifacts are the fan-out half of the cell store: `-shard i/n`
// runs only the cells whose key hash lands in shard i, captures them as
// portable cell documents, and prints them with the full run spec;
// `merge` over a complete partition preloads the cells into an in-memory
// store and replays the run, which renders byte-identical output to the
// unsharded invocation (every cell is a store hit, and store payloads
// round-trip float64s exactly). The partition is keyed on content
// hashes, so it is stable across machines and -par settings, and shard
// artifacts are themselves deterministic: cells serialize sorted by
// canonical key.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/store"
)

// shardSpec pins everything that determines the cell grid of a sharded
// run, so merge can replay it hermetically: the subcommand list, the
// runner settings, and the fully resolved hardware profile(s) — a merge
// machine does not need the producer's profile files.
type shardSpec struct {
	Commands []string `json:"commands"`
	Iters    int      `json:"iters"`
	Seed     int64    `json:"seed"`
	Size     string   `json:"size,omitempty"`
	Jobs     int      `json:"jobs"`
	Workload string   `json:"workload"`
	// Setups is the -setups study list by registered name; empty means
	// the paper's five (omitted from JSON, so artifacts from builds
	// without the flag still merge).
	Setups []string `json:"setups,omitempty"`
	// Gpus/Topology/Policy pin the multigpu grid flags; empty means the
	// figure defaults (omitted, so pre-multigpu artifacts still merge).
	Gpus     string            `json:"gpus,omitempty"`
	Topology string            `json:"topology,omitempty"`
	Policy   string            `json:"policy,omitempty"`
	Profile  profile.Profile   `json:"profile"`
	Profiles []profile.Profile `json:"profiles,omitempty"`
}

// setupNames maps a resolved study list back to its registered names
// for embedding in a shard spec (nil stays nil).
func setupNames(setups []cuda.Setup) []string {
	if len(setups) == 0 {
		return nil
	}
	names := make([]string, len(setups))
	for i, s := range setups {
		names[i] = s.String()
	}
	return names
}

// shardArtifact is the printed product of a -shard run. Besides the
// cells it carries the wall seconds this producer actually spent
// simulating (the sum of its uvmbench_cell_seconds histogram; zero when
// every cell was a store hit), from which merge reports the balance
// across the partition.
type shardArtifact struct {
	Schema            int             `json:"schema"`
	Spec              shardSpec       `json:"spec"`
	ShardIndex        int             `json:"shard_index"`
	ShardCount        int             `json:"shard_count"`
	ActualCellSeconds float64         `json:"actual_cell_seconds"`
	Cells             []store.CellDoc `json:"cells"`
}

// printShardBalance reports how evenly the partition spread its cost —
// on stderr, so merged stdout stays byte-identical to the unsharded
// run. The seconds are what each producer really paid (zero for fully
// store-warm shards).
func printShardBalance(w io.Writer, files []string, arts []shardArtifact) {
	if len(arts) < 2 {
		return
	}
	var actSum, actMax float64
	for _, art := range arts {
		actSum += art.ActualCellSeconds
		actMax = max(actMax, art.ActualCellSeconds)
	}
	fmt.Fprintf(w, "shard balance: %d shards, actual max/mean %.2f\n",
		len(arts), ratioOrZero(actMax, actSum/float64(len(arts))))
	for i, art := range arts {
		fmt.Fprintf(w, "  shard %d/%d %s: %d cells, actual %.3fs\n",
			art.ShardIndex, art.ShardCount, files[i], len(art.Cells), art.ActualCellSeconds)
	}
}

func ratioOrZero(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// parseShard parses the -shard flag's "i/n" form (1-based index).
func parseShard(s string) (idx, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(i)
		if err == nil {
			count, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard must be i/n (e.g. 2/3), got %q", s)
	}
	if count < 1 || idx < 1 || idx > count {
		return 0, 0, fmt.Errorf("-shard index out of range: %d/%d needs 1 <= i <= n", idx, count)
	}
	return idx, count, nil
}

// emitShardArtifact prints the artifact as indented JSON. The encoding
// is deterministic (sorted cells, fixed field order), so artifacts from
// the same shard are byte-identical at any -par.
func emitShardArtifact(w io.Writer, art shardArtifact) error {
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// runMerge implements the merge subcommand: validate that the given
// artifacts form one complete partition of one run, preload their cells
// into an in-memory store, and replay the recorded subcommands against
// it. Cells all hit the store, so the merge simulates nothing — and if
// an artifact were somehow missing a cell, the replay would recompute
// it, yielding the same bytes (cells are pure functions of their keys).
func runMerge(files []string, par int, jsonOut bool, cacheDir string) error {
	if len(files) == 0 {
		return fmt.Errorf("usage: uvmbench merge <shard.json> ...")
	}
	arts := make([]shardArtifact, len(files))
	var specJSON []byte
	for i, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &arts[i]); err != nil {
			return fmt.Errorf("%s: not a shard artifact: %w", path, err)
		}
		if arts[i].Schema != store.SchemaVersion {
			return fmt.Errorf("%s: artifact schema v%d, this build reads v%d",
				path, arts[i].Schema, store.SchemaVersion)
		}
		sj, err := json.Marshal(arts[i].Spec)
		if err != nil {
			return err
		}
		if i == 0 {
			specJSON = sj
		} else if !bytes.Equal(sj, specJSON) {
			return fmt.Errorf("%s: produced by a different run spec than %s", path, files[0])
		}
	}
	n := arts[0].ShardCount
	byIndex := make([]string, n+1)
	for i, art := range arts {
		if art.ShardCount != n {
			return fmt.Errorf("%s: shard count %d, expected %d", files[i], art.ShardCount, n)
		}
		if art.ShardIndex < 1 || art.ShardIndex > n {
			return fmt.Errorf("%s: shard index %d out of 1..%d", files[i], art.ShardIndex, n)
		}
		if byIndex[art.ShardIndex] != "" {
			return fmt.Errorf("%s and %s are both shard %d/%d",
				byIndex[art.ShardIndex], files[i], art.ShardIndex, n)
		}
		byIndex[art.ShardIndex] = files[i]
	}
	for i := 1; i <= n; i++ {
		if byIndex[i] == "" {
			return fmt.Errorf("incomplete partition: shard %d/%d missing", i, n)
		}
	}
	printShardBalance(os.Stderr, files, arts)

	spec := arts[0].Spec
	if err := spec.Profile.Validate(); err != nil {
		return fmt.Errorf("%s: embedded profile: %w", files[0], err)
	}
	for _, p := range spec.Profiles {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%s: embedded profile: %w", files[0], err)
		}
	}

	mem := store.NewMem()
	for _, art := range arts {
		for _, doc := range art.Cells {
			if err := mem.Put(doc.Key, doc); err != nil {
				return err
			}
		}
	}

	r := core.NewRunnerFor(spec.Profile)
	r.Iterations = spec.Iters
	r.BaseSeed = spec.Seed
	r.Parallelism = par
	r.Store = mem
	if len(spec.Setups) > 0 {
		setups, err := cuda.ParseSetupList(strings.Join(spec.Setups, ","))
		if err != nil {
			return fmt.Errorf("%s: embedded setups: %w", files[0], err)
		}
		r.Setups = setups
	}
	if cacheDir != "" {
		// Also persist the merged cells, so the union of shard runs
		// leaves behind the same warm store a single-shot -cache-dir run
		// would have.
		dir, err := store.Open(cacheDir)
		if err != nil {
			return err
		}
		for _, doc := range mem.Docs() {
			if err := dir.Put(doc.Key, doc); err != nil {
				return err
			}
		}
		r.Store = store.NewTiered(mem, dir)
	}

	o := &options{
		out:      os.Stdout,
		json:     jsonOut,
		sizeName: spec.Size,
		jobs:     spec.Jobs,
		workload: spec.Workload,
		gpus:     spec.Gpus,
		topology: spec.Topology,
		policy:   spec.Policy,
		fixed:    spec.Profiles,
	}
	o.sizeOr = sizeOrFunc(spec.Size)
	for _, cmd := range spec.Commands {
		if err := dispatch(r, cmd, o); err != nil {
			return err
		}
	}
	// Merge is always store-backed (the shard cells), so the footer
	// prints for every replayed command set, like any -cache-dir run.
	printCacheSummary(r, o)
	return nil
}
