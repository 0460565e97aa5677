package main

// Shard artifacts are the fan-out half of the cell store: `-shard i/n`
// runs only the cells whose key hash lands in shard i, captures them as
// portable cell documents, and prints them with the run's Request;
// `merge` over a complete partition loads the cells into an in-memory
// store and replays the Request through the CLI's own path, which
// renders byte-identical output to the unsharded invocation (every cell
// is a store hit, and store payloads round-trip float64s exactly). The
// partition is keyed on content hashes, so it is stable across machines
// and -par settings, and shard artifacts are themselves deterministic:
// cells serialize sorted by canonical key.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"uvmasim/internal/serve"
	"uvmasim/internal/store"
)

// shardArtifact is the printed product of a -shard run. Besides the
// cells it carries the wall seconds this producer actually spent
// simulating (the sum of its uvmbench_cell_seconds histogram; zero when
// every cell was a store hit), from which merge reports the balance
// across the partition.
type shardArtifact struct {
	Schema            int             `json:"schema"`
	Spec              serve.Request   `json:"spec"`
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

// loadShards reads the merge subcommand's artifacts: each must decode
// strictly as this build's format, all must carry one run and together
// form one complete partition of it. It returns the validated run and
// the union of the artifacts' cells. If an artifact were somehow missing
// a cell, the replay would recompute it, yielding the same bytes (cells
// are pure functions of their keys).
func loadShards(files []string) (*serve.Request, *store.Mem, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("usage: uvmbench merge <shard.json> ...")
	}
	arts := make([]shardArtifact, len(files))
	var specJSON []byte
	for i, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&arts[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: not a shard artifact of this build: %w", path, err)
		}
		if arts[i].Schema != store.SchemaVersion {
			return nil, nil, fmt.Errorf("%s: artifact schema v%d, this build reads v%d",
				path, arts[i].Schema, store.SchemaVersion)
		}
		sj, err := json.Marshal(arts[i].Spec)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			specJSON = sj
		} else if !bytes.Equal(sj, specJSON) {
			return nil, nil, fmt.Errorf("%s: produced by a different run spec than %s", path, files[0])
		}
	}
	n := arts[0].ShardCount
	byIndex := make([]string, n+1)
	for i, art := range arts {
		if art.ShardCount != n {
			return nil, nil, fmt.Errorf("%s: shard count %d, expected %d", files[i], art.ShardCount, n)
		}
		if art.ShardIndex < 1 || art.ShardIndex > n {
			return nil, nil, fmt.Errorf("%s: shard index %d out of 1..%d", files[i], art.ShardIndex, n)
		}
		if byIndex[art.ShardIndex] != "" {
			return nil, nil, fmt.Errorf("%s and %s are both shard %d/%d",
				byIndex[art.ShardIndex], files[i], art.ShardIndex, n)
		}
		byIndex[art.ShardIndex] = files[i]
	}
	for i := 1; i <= n; i++ {
		if byIndex[i] == "" {
			return nil, nil, fmt.Errorf("incomplete partition: shard %d/%d missing", i, n)
		}
	}
	req := &arts[0].Spec
	if len(req.Figures) == 0 {
		return nil, nil, fmt.Errorf("%s: spec names no figures", files[0])
	}
	if err := req.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", files[0], err)
	}
	printShardBalance(os.Stderr, files, arts)

	mem := store.NewMem()
	for _, art := range arts {
		for _, doc := range art.Cells {
			if err := mem.Put(doc.Key, doc); err != nil {
				return nil, nil, err
			}
		}
	}
	return req, mem, nil
}
