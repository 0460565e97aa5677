package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestPprofFlags runs a subcommand with -cpuprofile and -memprofile and
// checks both files come out in pprof's file format (a proto decode
// would drag in a dependency; the gzip header is the format's invariant
// first two bytes, and an empty or text file fails it).
func TestPprofFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-i", "1", "-cpuprofile", cpu, "-memprofile", mem, "fig12"}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: not a gzipped pprof profile (got % x...)", path, data[:min(8, len(data))])
		}
	}
}

// TestPprofFlagErrors pins the failure modes: an unwritable profile path
// fails up front, before any simulation runs — for the heap profile too,
// even though its snapshot is only taken after the run. The huge -i
// makes these hang if creation regresses to run-end; the deadline
// catches that.
func TestPprofFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"cpuprofile": {"-i", "100000", "-cpuprofile",
			filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof"), "fig12"},
		"memprofile": {"-i", "100000", "-memprofile",
			filepath.Join(t.TempDir(), "no", "such", "dir", "mem.prof"), "fig12"},
	}
	for name, args := range cases {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("unwritable -%s path should error", name)
			} else if strings.Contains(err.Error(), "iters") {
				t.Errorf("-%s: failed on the iters ceiling instead of the path: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("-%s: bad path did not fail before the run", name)
		}
	}
}
