package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmasim/internal/serve"
)

// readTrace loads one written trace file and fails the test if it is
// missing or not valid JSON.
func readTrace(t *testing.T, dir, workload, setup string) []byte {
	t.Helper()
	path := filepath.Join(dir, "trace_"+workload+"_"+setup+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("%s is not valid JSON", path)
	}
	return data
}

// TestTraceSubcommand records one timeline and checks the written file
// is a well-formed Chrome trace plus that the stdout summary names it.
func TestTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	out := capture(t, "-i", "1", "-workload", "gemm", "-setup", "uvm_prefetch_async",
		"-out", dir, "trace")
	data := readTrace(t, dir, "gemm", "uvm_prefetch_async")

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)] = true
	}
	for _, ph := range []string{"M", "X"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events", ph)
		}
	}
	if !strings.Contains(out, "trace_gemm_uvm_prefetch_async.json") {
		t.Errorf("summary does not name the written file:\n%s", out)
	}
	if !strings.Contains(out, "busy") {
		t.Errorf("summary has no per-track busy line:\n%s", out)
	}
}

// TestTraceAllSetups checks that an empty -setup writes one timeline
// per paper setup.
func TestTraceAllSetups(t *testing.T) {
	dir := t.TempDir()
	capture(t, "-i", "1", "-size", "small", "-workload", "vector_seq", "-out", dir, "trace")
	for _, setup := range []string{"standard", "async", "uvm", "uvm_prefetch", "uvm_prefetch_async"} {
		readTrace(t, dir, "vector_seq", setup)
	}
}

// TestTraceDeterministic is the ISSUE's acceptance check: the trace
// file must be byte-identical across runs with the same seed and any
// -par value.
func TestTraceDeterministic(t *testing.T) {
	files := make([][]byte, 0, 3)
	for _, par := range []string{"1", "0", "1"} {
		dir := t.TempDir()
		capture(t, "-i", "1", "-par", par, "-workload", "gemm",
			"-setup", "uvm_prefetch_async", "-out", dir, "trace")
		files = append(files, readTrace(t, dir, "gemm", "uvm_prefetch_async"))
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("trace differs between -par 1 and -par 0")
	}
	if !bytes.Equal(files[0], files[2]) {
		t.Error("trace differs between two runs with the same seed")
	}
}

// TestJSONFlag checks the -json figure mode: the output must be a valid
// JSON document with the figure envelope, byte-identical between the
// serial and parallel executor.
func TestJSONFlag(t *testing.T) {
	serial := capture(t, "-i", "2", "-par", "1", "-json", "fig6")
	parallel := capture(t, "-i", "2", "-par", "8", "-json", "fig6")
	if serial != parallel {
		t.Errorf("-json output diverges between -par 1 and -par 8\n%s\nvs\n%s", serial, parallel)
	}
	var doc struct {
		Figure string          `json:"figure"`
		Data   json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(serial), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Figure != "fig6" {
		t.Errorf("figure = %q, want fig6", doc.Figure)
	}
	if len(doc.Data) == 0 {
		t.Error("empty data payload")
	}
}

// TestJSONFlagAcrossSubcommands smoke-checks that every figure of `all`
// prints exactly one valid JSON document at -i 1, where the spread
// statistics of fig4, fig5 and fig6 are undefined (one sample) and must
// encode as null rather than fail the run.
func TestJSONFlagAcrossSubcommands(t *testing.T) {
	for _, sub := range serve.AllFigures {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			out := capture(t, "-i", "1", "-json", sub)
			var doc struct {
				Figure string `json:"figure"`
			}
			if err := json.Unmarshal([]byte(out), &doc); err != nil {
				t.Fatalf("%s -json output is not one JSON document: %v", sub, err)
			}
			if doc.Figure != sub {
				t.Errorf("figure = %q, want %q", doc.Figure, sub)
			}
		})
	}
}

// TestTraceJSONSummary checks the machine-readable trace summary mode.
func TestTraceJSONSummary(t *testing.T) {
	dir := t.TempDir()
	out := capture(t, "-i", "1", "-json", "-workload", "gemm",
		"-setup", "uvm", "-out", dir, "trace")
	var doc struct {
		Figure string `json:"figure"`
		Data   []struct {
			Workload string             `json:"workload"`
			Setup    string             `json:"setup"`
			Path     string             `json:"path"`
			Events   int                `json:"events"`
			Busy     map[string]float64 `json:"busy_ns_by_track"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Figure != "trace" || len(doc.Data) != 1 {
		t.Fatalf("unexpected summary: %s", out)
	}
	d := doc.Data[0]
	if d.Workload != "gemm" || d.Setup != "uvm" || d.Events == 0 || len(d.Busy) == 0 {
		t.Errorf("summary fields wrong: %+v", d)
	}
	readTrace(t, dir, "gemm", "uvm")
}

// TestMultiGPUTraceExport: -gpus makes trace export the multigpu
// schedules, one Chrome trace per (topology, device count, schedule),
// with rows for every GPU.
func TestMultiGPUTraceExport(t *testing.T) {
	dir := t.TempDir()
	capture(t, "-i", "1", "-gpus", "2", "-out", dir, "trace")
	for _, file := range []string{"pcie-switch_2_serial", "pcie-switch_2_pipelined", "nvlink_2_serial", "nvlink_2_pipelined"} {
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(readTrace(t, dir, "multigpu", file), &doc); err != nil {
			t.Fatal(err)
		}
		spans, rows := 0, map[string]bool{}
		for _, e := range doc.TraceEvents {
			if e["ph"] == "X" {
				spans++
			}
			if args, ok := e["args"].(map[string]any); ok && e["name"] == "thread_name" {
				name, _ := args["name"].(string)
				rows[name] = true
			}
		}
		if spans == 0 || !rows["gpu0 kernel"] || !rows["gpu1 kernel"] {
			t.Errorf("trace_multigpu_%s.json: %d spans, rows %v; want spans and a kernel row per GPU", file, spans, rows)
		}
	}
}
