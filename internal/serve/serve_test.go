package serve

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uvmasim/internal/core"
	"uvmasim/internal/profile"
	"uvmasim/internal/store"
)

// post sends one experiment spec through the full handler stack.
func post(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// quietConfig silences request logs in tests that don't assert on them.
func quietConfig() Config {
	return Config{Log: log.New(bytes.NewBuffer(nil), "", 0)}
}

// cliJSON renders the byte-exact CLI -json output for a figure list at
// the given iterations — the oracle every POST response must match.
func cliJSON(t *testing.T, iters int, figures ...string) string {
	t.Helper()
	r := core.NewRunnerFor(profile.Default())
	r.Iterations = iters
	var out strings.Builder
	for _, fig := range figures {
		_, doc, err := Figure(r, fig, FigureOptions{Jobs: 8, Workload: "gemm"})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.RenderJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(s)
	}
	return out.String()
}

// promLine matches one sample line of the Prometheus text format.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)

// parseProm validates text against the exposition grammar and returns
// the samples.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as Prometheus text format: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(strings.TrimPrefix(line[i+1:], "+"), 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestExperimentsByteIdentity is the wire-format acceptance criterion:
// POST responses match CLI -json output byte for byte, cold and warm,
// for single- and multi-figure specs.
func TestExperimentsByteIdentity(t *testing.T) {
	s := New(quietConfig())
	h := s.Handler()

	want := cliJSON(t, 2, "fig6")
	cold := post(h, `{"figure":"fig6","iters":2}`)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold POST status %d: %s", cold.Code, cold.Body.String())
	}
	if got := cold.Body.String(); got != want {
		t.Errorf("cold response diverges from CLI -json output:\n%s\nvs\n%s", got, want)
	}
	warm := post(h, `{"figure":"fig6","iters":2}`)
	if got := warm.Body.String(); got != want {
		t.Errorf("warm response diverges from the cold one:\n%s\nvs\n%s", got, want)
	}
	if ct := cold.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if id := cold.Header().Get("X-Request-ID"); id == "" {
		t.Error("response should carry a request ID")
	}

	multi := post(h, `{"figures":["table3","fig6"],"iters":2}`)
	if got, want := multi.Body.String(), cliJSON(t, 2, "table3", "fig6"); got != want {
		t.Errorf("multi-figure response diverges from concatenated CLI docs")
	}
}

// TestSingleIterationSpec pins that a valid one-iteration spec is
// answered: the spread statistics of fig4, fig5 and fig6 are undefined
// over one sample, and the response encodes them as null instead of
// failing the request with a 500.
func TestSingleIterationSpec(t *testing.T) {
	h := New(quietConfig()).Handler()
	for _, fig := range []string{"fig4", "fig5", "fig6"} {
		w := post(h, `{"figure":"`+fig+`","iters":1}`)
		if w.Code != http.StatusOK {
			t.Fatalf("%s iters 1: status %d: %s", fig, w.Code, w.Body.String())
		}
		if got, want := w.Body.String(), cliJSON(t, 1, fig); got != want {
			t.Errorf("%s iters 1: response diverges from CLI -json output", fig)
		}
		if !strings.Contains(w.Body.String(), "null") {
			t.Errorf("%s iters 1: no undefined spread encoded as null", fig)
		}
	}
}

// TestStoreWarmRestart models a server restart on a warm cell store: the
// second process serves identical bytes from store hits, and the
// store-hit counter on /metrics advances.
func TestStoreWarmRestart(t *testing.T) {
	dirPath := t.TempDir()
	open := func() *store.Dir {
		d, err := store.Open(dirPath)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cfg := quietConfig()
	cfg.Store = open()
	cfg.StoreDir = dirPath
	s1 := New(cfg)
	first := post(s1.Handler(), `{"figure":"fig6","iters":2}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST status %d: %s", first.Code, first.Body.String())
	}

	cfg2 := quietConfig()
	cfg2.Store = open()
	cfg2.StoreDir = dirPath
	s2 := New(cfg2)
	second := post(s2.Handler(), `{"figure":"fig6","iters":2}`)
	if second.Body.String() != first.Body.String() {
		t.Error("restarted server's response diverges from the first process's")
	}
	samples := parseProm(t, get(s2.Handler(), "/metrics").Body.String())
	if samples["uvmbench_store_hits_total"] == 0 {
		t.Error("warm restart should report store hits on /metrics")
	}
	if sim := samples["uvmbench_cells_simulated_total"]; sim != 0 {
		t.Errorf("warm restart simulated %v cells, want 0", sim)
	}
}

func TestSpecValidation(t *testing.T) {
	s := New(quietConfig())
	h := s.Handler()
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"figur":"fig6"}`, `did you mean`},
		{"unknown figure", `{"figure":"fig99"}`, "unknown figure"},
		{"no figures", `{}`, "spec names no figures"},
		{"negative iters", `{"figure":"table3","iters":-1}`, "iters must be >= 1, got -1"},
		{"negative jobs", `{"figure":"table3","jobs":-1}`, "jobs must be >= 1, got -1"},
		{"bad workload", `{"figure":"compare-profiles","workload":"nope"}`, "nope"},
		{"bad size", `{"figure":"table3","size":"giga"}`, "giga"},
		{"bad profile", `{"figure":"table3","profile":"a100"}`, "a100"},
		{"bad syntax", `{`, "bad spec"},
		{"trailing data", `{"figure":"table3"} extra`, "trailing"},
		{"retired itpar", `{"figure":"fig7","itpar":2}`, `unknown spec field \"itpar\"`},
		// Sizes that no explicit-copy setup can allocate on a profile the
		// figure runs fail before anything simulates.
		{"size exceeds profile", `{"figure":"fig8","size":"mega","profile":"v100-16g-pcie3"}`, "does not fit profile v100-16g-pcie3"},
		{"size exceeds a compared profile", `{"figure":"compare-profiles","size":"mega"}`, "does not fit profile v100-16g-pcie3"},
		// Counts above their ceilings fail instead of panicking a worker
		// on an impossible allocation.
		{"iters above ceiling", `{"figure":"fig12","iters":4611686018427387904}`, "iters must be <= 100000"},
		{"jobs above ceiling", `{"figure":"multigpu","jobs":4611686018427387904}`, "jobs must be <= 16"},
		{"gpus above ceiling", `{"figure":"multigpu","gpus":[4611686018427387904]}`, "gpus entries must be <= 8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := post(h, c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), c.wantErr) {
				t.Errorf("error %q should contain %q", w.Body.String(), c.wantErr)
			}
		})
	}
	if w := get(h, "/v1/experiments"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", w.Code)
	}
}

// FuzzParseSpec: every body yields a Request or an error, never a
// panic, and an accepted Request passes Validate again with every count
// within its ceiling. ParseSpec never simulates, so each input is cheap.
// The seed corpus lives in testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseSpec(bytes.NewReader(body), profile.Default())
		if err != nil {
			if req != nil {
				t.Fatalf("ParseSpec returned a Request with error %v", err)
			}
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", body, err)
		}
		gpus, _, _, err := ResolveMultiGPU(req.FigureOptions)
		if err != nil {
			t.Fatalf("accepted spec %q has an unresolvable grid: %v", body, err)
		}
		if req.Iters < 1 || req.Iters > MaxIters || req.Jobs < 1 || req.Jobs > MaxJobs {
			t.Fatalf("accepted spec %q: iters %d, jobs %d outside their bounds", body, req.Iters, req.Jobs)
		}
		for _, g := range gpus {
			if g < 1 || g > MaxGPUs {
				t.Fatalf("accepted spec %q: gpus entry %d outside its bounds", body, g)
			}
		}
	})
}

// TestSpecSizeOnManagedSetups: a size override that exceeds device
// memory stays valid where no explicit-copy setup has to allocate it —
// managed setups oversubscribe, fig14 and multigpu run one managed
// setup, a darknet network's buffers do not grow with the size — and on
// profiles that fit it.
func TestSpecSizeOnManagedSetups(t *testing.T) {
	for _, body := range []string{
		`{"figure":"fig14","size":"mega","profile":"v100-16g-pcie3"}`,
		`{"figure":"multigpu","size":"mega","profile":"v100-16g-pcie3"}`,
		`{"figure":"micro","size":"mega","profile":"v100-16g-pcie3","setups":["uvm"]}`,
		`{"figure":"fig8","size":"mega"}`,
		`{"figure":"compare-profiles","size":"mega","profiles":["a100-40g-pcie4","a100-80g-sxm"]}`,
		`{"figure":"compare-profiles","size":"mega","workload":"yolov3"}`,
		`{"figure":"fig7","size":"mega","profile":"v100-16g-pcie3"}`,
	} {
		if _, err := ParseSpec(strings.NewReader(body), profile.Default()); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// TestAdmissionControl: with the worker-slot budget exhausted, a POST
// is rejected immediately with 429 + Retry-After and counted.
func TestAdmissionControl(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	cfg.Parallelism = 1
	s := New(cfg)
	held, ok := s.slots.tryAcquire(1) // occupy the whole budget
	if !ok {
		t.Fatal("fresh pool refused a within-budget claim")
	}
	w := post(s.Handler(), `{"figure":"table3"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 should carry Retry-After")
	}
	s.slots.release(held)
	samples := parseProm(t, get(s.Handler(), "/metrics").Body.String())
	if samples["uvmbench_admission_rejections_total"] != 1 {
		t.Errorf("rejections counter = %v, want 1", samples["uvmbench_admission_rejections_total"])
	}
	if w := post(s.Handler(), `{"figure":"table3"}`); w.Code != http.StatusOK {
		t.Errorf("freed slot should admit, got %d", w.Code)
	}
}

// TestAdmissionWeights: admission budgets worker slots, so a wide
// executor claims its full width, a second wide request bounces off the
// remainder, and a request wider than the whole budget is clamped
// rather than starved.
func TestAdmissionWeights(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 4
	cfg.Parallelism = 4
	s := New(cfg)
	held, ok := s.slots.tryAcquire(4)
	if !ok || held != 4 {
		t.Fatalf("tryAcquire(4) = %d, %v; want the full width", held, ok)
	}
	if w := post(s.Handler(), `{"figure":"table3"}`); w.Code != http.StatusTooManyRequests {
		t.Errorf("budget-exhausted POST = %d, want 429", w.Code)
	}
	s.slots.release(held)
	if w := post(s.Handler(), `{"figure":"table3"}`); w.Code != http.StatusOK {
		t.Errorf("freed budget should admit, got %d", w.Code)
	}

	// An executor wider than the budget still admits — alone.
	wide := quietConfig()
	wide.MaxInFlight = 2
	wide.Parallelism = 8
	ws := New(wide)
	granted, ok := ws.slots.tryAcquire(8)
	if !ok || granted != 2 {
		t.Fatalf("over-wide claim granted %d, %v; want clamp to budget 2", granted, ok)
	}
	if _, ok := ws.slots.tryAcquire(1); ok {
		t.Error("clamped claim should still exhaust the budget")
	}
	ws.slots.release(granted)
	if ws.slots.used != 0 {
		t.Errorf("pool leaks slots: used = %d after release", ws.slots.used)
	}
}

func TestHealthz(t *testing.T) {
	s := New(quietConfig())
	if w := get(s.Handler(), "/healthz"); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", w.Code, w.Body.String())
	}

	// Store probe failure: point StoreDir at a regular file. (A chmod'd
	// read-only directory does not fail under root, a plain file always
	// does.)
	filePath := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(filePath, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.StoreDir = filePath
	broken := New(cfg)
	if w := get(broken.Handler(), "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("broken store probe = %d, want 503", w.Code)
	}

	s.draining.Store(true)
	if w := get(s.Handler(), "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", w.Code)
	}
	if w := post(s.Handler(), `{"figure":"table3"}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining POST = %d, want 503", w.Code)
	}
}

func TestPprofExposed(t *testing.T) {
	s := New(quietConfig())
	if w := get(s.Handler(), "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("pprof cmdline = %d, want 200", w.Code)
	}
}

// TestRequestLog pins the structured one-line log format.
func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	s := New(Config{Log: log.New(lockedWriter{&mu, &buf}, "", 0)})
	req := httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(`{"figure":"table3"}`))
	req.Header.Set("X-Request-ID", "req-42")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	mu.Lock()
	line := strings.TrimSpace(buf.String())
	mu.Unlock()
	for _, want := range []string{"ts=", "id=req-42", "method=POST",
		"path=/v1/experiments", "status=200", "dur_ms=", "bytes="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line %q missing %q", line, want)
		}
	}
	if w.Header().Get("X-Request-ID") != "req-42" {
		t.Error("caller-supplied request ID should be echoed")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestMetricsUnderLoad is the satellite concurrency test: scrape
// /metrics while experiment requests run (race-enabled in CI), assert
// every scrape parses, counters are monotonic, and the request
// histogram's final count equals the number of experiment requests.
func TestMetricsUnderLoad(t *testing.T) {
	const workers, perWorker = 4, 6
	// Admission is budgeted in worker slots (width × concurrent
	// requests); pin width 1 and a budget covering every worker so this
	// test exercises metrics consistency, never rejection — admission
	// behavior has its own tests (TestAdmissionControl,
	// TestAdmissionWeights).
	cfg := quietConfig()
	cfg.Parallelism = 1
	cfg.MaxInFlight = workers
	s := New(cfg)
	h := s.Handler()

	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		last := make(map[string]float64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := get(h, "/metrics")
			if w.Code != http.StatusOK {
				scrapeErr <- fmt.Errorf("scrape status %d", w.Code)
				return
			}
			samples := parseProm(t, w.Body.String())
			for _, name := range []string{
				"uvmbench_request_seconds_count",
				`uvmbench_http_responses_total{code="200"}`,
				"uvmbench_cell_cache_hits_total",
				"uvmbench_cell_cache_misses_total",
			} {
				if samples[name] < last[name] {
					scrapeErr <- fmt.Errorf("%s went backwards: %v -> %v", name, last[name], samples[name])
					return
				}
				last[name] = samples[name]
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if r := post(h, `{"figure":"table3"}`); r.Code != http.StatusOK {
					t.Errorf("POST status %d", r.Code)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	samples := parseProm(t, get(h, "/metrics").Body.String())
	total := float64(workers * perWorker)
	if got := samples["uvmbench_request_seconds_count"]; got != total {
		t.Errorf("request histogram count = %v, want %v", got, total)
	}
	if got := samples[`uvmbench_request_seconds_bucket{le="+Inf"}`]; got != total {
		t.Errorf("+Inf bucket = %v, want %v", got, total)
	}
	if got := samples[`uvmbench_http_responses_total{code="200"}`]; got < total {
		t.Errorf("200 responses = %v, want >= %v", got, total)
	}
	// The scrape observes itself mid-flight: exactly one request (the
	// scrape) is in flight when the gauge is rendered.
	if got := samples["uvmbench_requests_inflight"]; got != 1 {
		t.Errorf("requests in flight at scrape time = %v, want 1 (the scrape itself)", got)
	}
}

// TestGracefulDrain: cancelling the serve context finishes in-flight
// requests and returns cleanly.
func TestGracefulDrain(t *testing.T) {
	s := New(quietConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain within 10s")
	}
	if !s.draining.Load() {
		t.Error("server should be marked draining after shutdown")
	}
}
