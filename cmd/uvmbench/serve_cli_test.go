package main

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"uvmasim/internal/serve"
)

// captureStderr runs the CLI with both stdout and stderr redirected and
// returns them separately; the footer satellite prints to stderr so
// stdout must be asserted unchanged.
func captureStderr(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	read := func(f *os.File, c chan<- string) {
		out, _ := io.ReadAll(f)
		f.Close()
		c <- string(out)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	re, we, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outc := make(chan string, 1)
	errc := make(chan string, 1)
	go read(ro, outc)
	go read(re, errc)
	os.Stdout, os.Stderr = wo, we
	runErr := run(args)
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	stdout, stderr = <-outc, <-errc
	if runErr != nil {
		t.Fatal(runErr)
	}
	return stdout, stderr
}

// TestServeResponseMatchesCLI is the end-to-end byte-identity check:
// the server's POST /v1/experiments response equals what the real CLI
// prints with -json for the same spec.
func TestServeResponseMatchesCLI(t *testing.T) {
	want := capture(t, "-i", "2", "-json", "fig6,fig9")
	s := serve.New(serve.Config{Log: log.New(io.Discard, "", 0)})
	req := httptest.NewRequest(http.MethodPost, "/v1/experiments",
		strings.NewReader(`{"figures":["fig6","fig9"],"iters":2}`))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Body.String(); got != want {
		t.Errorf("server response diverges from CLI -json output:\n--- server\n%s--- cli\n%s", got, want)
	}
}

// TestServeArgErrors: serve is exclusive and reads only its process
// settings.
func TestServeArgErrors(t *testing.T) {
	if err := run([]string{"serve,table3"}); err == nil ||
		!strings.Contains(err.Error(), "serve cannot be combined") {
		t.Errorf("serve,table3 should be rejected, got %v", err)
	}
	// Each request's spec defines its run, so a run flag given to serve
	// fails instead of being silently dropped. Run with a deadline: a
	// regression would start serving and never return.
	for _, flag := range [][]string{{"-i", "5"}, {"-json"}, {"-workload", "lud"}, {"-setups", "uvm"}} {
		done := make(chan error, 1)
		go func() { done <- run(append(flag, "-addr", "127.0.0.1:0", "serve")) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), flag[0]+" does not apply to serve") {
				t.Errorf("%v serve: err = %v, want the flag named", flag, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v serve: started serving instead of failing", flag)
		}
	}
}

// TestCacheFooterForStoreBackedRuns covers the footer satellite: every
// store-backed subcommand prints the two-tier summary to stderr (not
// just `all`), stdout stays byte-identical, and in JSON mode the doc
// carries the metrics snapshot.
func TestCacheFooterForStoreBackedRuns(t *testing.T) {
	dir := t.TempDir()
	plainOut, plainErr := captureStderr(t, "-i", "1", "fig6")
	if strings.Contains(plainErr, "cache:") {
		t.Errorf("storeless fig6 run should print no footer, got %q", plainErr)
	}
	storedOut, storedErr := captureStderr(t, "-i", "1", "-cache-dir", dir, "fig6")
	if !strings.Contains(storedErr, "cache:") || !strings.Contains(storedErr, "store:") {
		t.Errorf("store-backed fig6 run should print the footer, got %q", storedErr)
	}
	if storedOut != plainOut {
		t.Error("-cache-dir must not change stdout")
	}

	_, jsonErr := captureStderr(t, "-i", "2", "-json", "-cache-dir", dir, "fig6")
	for _, want := range []string{`"figure": "cache_summary"`, `"store_hits"`,
		`"metrics"`, `"uvmbench_store_hits_total"`} {
		if !strings.Contains(jsonErr, want) {
			t.Errorf("JSON footer missing %s:\n%s", want, jsonErr)
		}
	}
}

// TestTraceCountersInSummary: a traced store-backed run folds the trace
// counter-registry totals into the cache-summary doc.
func TestTraceCountersInSummary(t *testing.T) {
	dir := t.TempDir()
	out := t.TempDir()
	_, stderr := captureStderr(t, "-i", "1", "-json", "-cache-dir", dir,
		"-workload", "vector_seq", "-setup", "uvm_prefetch", "-out", out, "trace")
	if !strings.Contains(stderr, `"trace_counters"`) {
		t.Errorf("traced run's summary should carry trace_counters:\n%s", stderr)
	}
}

// TestTraceCountersWithoutStore: a trace run prints its counter totals
// on stderr without -cache-dir too; they are the run's counter
// registry, not store traffic.
func TestTraceCountersWithoutStore(t *testing.T) {
	_, stderr := captureStderr(t, "-i", "1", "-json", "-workload", "gemm", "-size", "small",
		"-setup", "uvm", "-out", t.TempDir(), "trace")
	var doc struct {
		Figure string `json:"figure"`
		Data   struct {
			TraceCounters map[string]float64 `json:"trace_counters"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(stderr), &doc); err != nil {
		t.Fatalf("storeless trace run printed no summary document: %v\n%s", err, stderr)
	}
	c := doc.Data.TraceCounters
	if doc.Figure != "cache_summary" || c["gpu.launches"] != 1 || c["uvm.fault_batches"] != 4 {
		t.Errorf("summary %q trace_counters = %v, want gpu.launches 1 and uvm.fault_batches 4",
			doc.Figure, c)
	}
}

// TestServeUsageListed: the serve subcommand shows up in -h.
func TestServeUsageListed(t *testing.T) {
	out := capture(t, "-h")
	for _, want := range []string{"uvmbench [flags] serve", "-addr", "-max-inflight"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage missing %q", want)
		}
	}
}
