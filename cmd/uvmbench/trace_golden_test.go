package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update is the only writer of testdata/trace. Use it to capture the
// goldens before a change whose traces must stay byte-identical, or in
// the one change that alters them on purpose.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenTraceSetups is every registered setup, one trace file each.
var goldenTraceSetups = []string{"standard", "async", "uvm", "uvm_prefetch",
	"uvm_prefetch_async", "uvm_zerocopy", "uvm_smcopy"}

// TestGoldenTrace pins the trace subcommand byte for byte: the listing
// `uvmbench -i 1 -seed 1 -workload gemm -size small -setups <every
// setup> -out D trace` prints, in text and -json, and the Chrome trace
// file it writes per setup, spans and the uvmasim_counters metadata
// event (the run's counter registry) included. The -out directory
// prints as D.
func TestGoldenTrace(t *testing.T) {
	golden := filepath.Join("testdata", "trace")
	for _, mode := range []struct{ name, flag string }{{"listing.txt", ""}, {"listing.json", "-json"}} {
		dir := t.TempDir()
		args := []string{"-i", "1", "-seed", "1", "-workload", "gemm", "-size", "small",
			"-setups", strings.Join(goldenTraceSetups, ","), "-out", dir, "trace"}
		if mode.flag != "" {
			args = append([]string{mode.flag}, args...)
		}
		got := map[string][]byte{mode.name: []byte(strings.ReplaceAll(capture(t, args...), dir, "D"))}
		for _, setup := range goldenTraceSetups {
			got["trace_gemm_"+setup+".json"] = readTrace(t, dir, "gemm", setup)
		}
		for name, data := range got {
			path := filepath.Join(golden, name)
			if *update {
				if err := os.MkdirAll(golden, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if string(data) != string(want) {
				t.Errorf("%s (%s run) differs from its golden", name, mode.name)
			}
		}
	}
}
