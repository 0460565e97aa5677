package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestShardMergeByteIdentity is the tentpole's property test: for every
// partition width n, sharding `all` into n artifacts and merging them
// reproduces the unsharded text and JSON output byte for byte — with
// shards produced at -par 4 and merges replayed at both -par 1 and 4.
func TestShardMergeByteIdentity(t *testing.T) {
	const iters = "2"
	wantText := capture(t, "-i", iters, "-par", "1", "all")
	wantJSON := capture(t, "-i", iters, "-par", "1", "-json", "all")
	if wantText == "" || wantJSON == "" {
		t.Fatal("unsharded reference output is empty")
	}

	for _, n := range []int{1, 2, 3, 5, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			files := make([]string, n)
			for i := 1; i <= n; i++ {
				art := capture(t, "-i", iters, "-par", "4",
					"-shard", fmt.Sprintf("%d/%d", i, n), "all")
				files[i-1] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
				if err := os.WriteFile(files[i-1], []byte(art), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mergeArgs := append([]string{"-par", "1", "merge"}, files...)
			if got := capture(t, mergeArgs...); got != wantText {
				t.Errorf("merged text diverges from unsharded output\nmerged:\n%.2000s\nwant:\n%.2000s", got, wantText)
			}
			mergeArgs = append([]string{"-par", "4", "merge"}, files...)
			if got := capture(t, mergeArgs...); got != wantText {
				t.Errorf("-par 4 merge diverges from unsharded output")
			}
			mergeArgs = append([]string{"-par", "4", "-json", "merge"}, files...)
			if got := capture(t, mergeArgs...); got != wantJSON {
				t.Errorf("merged JSON diverges from unsharded -json output")
			}
		})
	}
}

// TestShardArtifactDeterminism: a shard artifact is byte-identical at
// any executor parallelism (cells serialize sorted by key, not in
// completion order) — except the actual-seconds field, which records
// real wall time and is normalized to zero before comparing.
func TestShardArtifactDeterminism(t *testing.T) {
	stripActual := func(raw string) (string, shardArtifact) {
		t.Helper()
		var art shardArtifact
		if err := json.Unmarshal([]byte(raw), &art); err != nil {
			t.Fatalf("artifact is not valid JSON: %v", err)
		}
		if art.ActualCellSeconds <= 0 {
			t.Errorf("a cold shard reports %g actual cell seconds, want > 0", art.ActualCellSeconds)
		}
		art.ActualCellSeconds = 0
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), art
	}
	serial, art := stripActual(capture(t, "-i", "2", "-par", "1", "-shard", "1/2", "all"))
	wide, _ := stripActual(capture(t, "-i", "2", "-par", "8", "-shard", "1/2", "all"))
	if serial != wide {
		t.Error("shard artifact differs between -par 1 and -par 8")
	}
	if art.ShardIndex != 1 || art.ShardCount != 2 {
		t.Errorf("artifact labeled %d/%d, want 1/2", art.ShardIndex, art.ShardCount)
	}
	if len(art.Cells) == 0 {
		t.Error("shard 1/2 of `all` captured no cells")
	}
}

// TestMergeValidation pins merge's failure modes: incomplete partitions,
// duplicate shards, mismatched specs, and garbage files all fail with a
// diagnostic instead of producing wrong output.
func TestMergeValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s1 := write("s1.json", capture(t, "-i", "1", "-shard", "1/2", "fig12"))
	s2 := write("s2.json", capture(t, "-i", "1", "-shard", "2/2", "fig12"))
	other := write("other.json", capture(t, "-i", "2", "-shard", "1/2", "fig12"))
	garbage := write("garbage.json", "{ not json")

	cases := map[string][]string{
		"no files":             {"merge"},
		"incomplete partition": {"merge", s1},
		"duplicate shard":      {"merge", s1, s1},
		"mismatched specs":     {"merge", s1, other},
		"garbage artifact":     {"merge", s1, garbage},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%s: merge should fail", name)
		}
	}
	// The artifacts define the run, so a run flag given to merge fails
	// instead of being silently dropped.
	for _, flag := range [][]string{{"-i", "7"}, {"-seed", "9"}, {"-size", "tiny"}, {"-profile", "v100-16g-pcie3"}} {
		err := run(append(flag, "merge", s1, s2))
		if err == nil || !strings.Contains(err.Error(), flag[0]+" does not apply to merge") {
			t.Errorf("%v merge: err = %v, want the flag named", flag, err)
		}
	}
	// An artifact in the older format, whose spec listed "commands",
	// fails naming the file instead of replaying an empty run.
	old := make([]string, 2)
	for i, path := range []string{s1, s2} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var art map[string]any
		if err := json.Unmarshal(b, &art); err != nil {
			t.Fatal(err)
		}
		spec := art["spec"].(map[string]any)
		spec["commands"] = spec["figures"]
		delete(spec, "figures")
		b, err = json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		old[i] = write(fmt.Sprintf("old%d.json", i+1), string(b))
	}
	if err := run(append([]string{"merge"}, old...)); err == nil ||
		!strings.Contains(err.Error(), old[0]) || !strings.Contains(err.Error(), `"commands"`) {
		t.Errorf("older-format artifact: err = %v, want it rejected naming %s", err, old[0])
	}
	// Sanity: the intact pair does merge.
	if err := run([]string{"merge", s1, s2}); err != nil {
		t.Errorf("valid merge failed: %v", err)
	}
}

// TestShardFlagValidation covers the -shard flag's own error surface.
func TestShardFlagValidation(t *testing.T) {
	for _, bad := range []string{"x", "0/2", "3/2", "1/0", "1/2/3", "a/b"} {
		if err := run([]string{"-shard", bad, "fig12"}); err == nil {
			t.Errorf("-shard %s should be rejected", bad)
		}
	}
	for _, sub := range []string{"trace", "list", "profiles"} {
		if err := run([]string{"-shard", "1/2", sub}); err == nil ||
			!strings.Contains(err.Error(), "sharded") {
			t.Errorf("-shard %s should be rejected as unshardable", sub)
		}
	}
	if err := run([]string{"-shard", "1/2", "merge"}); err == nil {
		t.Error("-shard with merge should be rejected")
	}
}

// TestCacheDirWarmRerun: a second run against the same -cache-dir
// prints byte-identical output (exercising the CLI wiring of the
// persistent store; the ≥5x wall-time claim is gated by
// scripts/bench_store.sh).
func TestCacheDirWarmRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cellstore")
	cold := capture(t, "-i", "2", "-cache-dir", dir, "fig9,fig12,oversub")
	warm := capture(t, "-i", "2", "-cache-dir", dir, "fig9,fig12,oversub")
	if cold != warm {
		t.Error("warm -cache-dir rerun diverges from cold run")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "v1"))
	if err != nil || len(entries) == 0 {
		t.Errorf("cache dir not populated (err=%v, entries=%d)", err, len(entries))
	}
}

// TestUpfrontValidation: every path-like flag and the subcommand list
// are validated before any simulation, so typos fail fast even when the
// requested run would take minutes.
func TestUpfrontValidation(t *testing.T) {
	// A huge iteration count makes these hang for minutes if validation
	// happens after the run; the deadline catches regressions.
	cases := map[string][]string{
		"bad cache-dir":        {"-i", "100000", "-cache-dir", "/dev/null/nope", "fig12"},
		"bad shard":            {"-i", "100000", "-shard", "9/3", "fig12"},
		"bad out for trace":    {"-i", "100000", "-out", "/dev/null/nope", "trace"},
		"unknown late command": {"-i", "100000", "fig12,bogus"},
		"bad late workload":    {"-i", "100000", "-workload", "nope", "fig12,compare-profiles"},
		"bad late profiles":    {"-i", "100000", "-profiles", "nope", "fig12,compare-profiles"},
	}
	for name, args := range cases {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: expected an error", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: validation did not fail fast", name)
		}
	}
}
