package serve

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uvmasim/internal/core"
	"uvmasim/internal/metrics"
	"uvmasim/internal/profile"
	"uvmasim/internal/store"
)

// Config configures a Server. The zero value is usable: default
// machine, no persistent store, one admission slot per core, logs to
// stderr, a fresh private metrics registry.
type Config struct {
	// Store is the persistent cell store shared by every request's
	// runner (nil = in-memory cell cache only). StoreDir is its
	// directory, probed for writability by /healthz ("" = no probe).
	Store    store.Store
	StoreDir string
	// MaxInFlight is the admission budget in worker slots, not
	// requests: each admitted experiment claims as many slots as its
	// executor width (clamped to the budget, so one maximal request
	// always fits), and requests that would overdraw the budget get
	// 429 + Retry-After immediately instead of queueing behind the
	// executor (<=0 = GOMAXPROCS). With Parallelism 1 this degrades to
	// the old requests count; with wide executors it keeps the total
	// worker count — not merely the request count — bounded.
	MaxInFlight int
	// Parallelism is each runner's executor width (the CLI's -par).
	Parallelism int
	// Registry receives every metric the server and the instrumented
	// harness layers expose (nil = a private registry).
	Registry *metrics.Registry
	// Log receives one structured line per request (nil = stderr).
	Log *log.Logger
	// DefaultProfile is the machine used by specs that name none
	// (zero = the built-in default).
	DefaultProfile profile.Profile
}

// Server is the uvmbench experiment service. Runners are shared across
// requests per hardware profile, so warm traffic is served from the
// in-memory cell cache (and the persistent store across restarts) — the
// metrics plane exists to make that fast-path/cold-path split visible.
type Server struct {
	cfg      Config
	def      profile.Profile
	reg      *metrics.Registry
	log      *log.Logger
	slots    slotPool
	handler  http.Handler
	draining atomic.Bool
	reqSeq   atomic.Uint64
	start    time.Time

	mu      sync.Mutex
	runners map[string]*core.Runner

	reqSeconds    *metrics.Histogram
	httpInflight  *metrics.Gauge
	expInflight   *metrics.Gauge
	slotsUsed     *metrics.Gauge
	rejected      *metrics.Counter
	goroutines    *metrics.Gauge
	uptimeSeconds *metrics.Gauge
}

// slotPool is the weighted admission budget: capacity and usage are
// counted in executor worker slots, so admission throttles the actual
// simulation concurrency rather than a request count that ignores how
// wide each request's executor fans out.
type slotPool struct {
	mu       sync.Mutex
	capacity int
	used     int
}

// tryAcquire claims weight slots. The weight is clamped to the pool's
// capacity so a request wider than the whole budget can still run —
// alone — rather than deadlocking behind an unsatisfiable demand.
// Returns the granted weight for the matching release.
func (p *slotPool) tryAcquire(weight int) (int, bool) {
	weight = max(1, min(weight, p.capacity))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used+weight > p.capacity {
		return 0, false
	}
	p.used += weight
	return weight, true
}

func (p *slotPool) release(weight int) {
	p.mu.Lock()
	p.used -= weight
	p.mu.Unlock()
}

// New builds a Server from cfg and registers its serving-plane metrics.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, def: cfg.DefaultProfile, reg: cfg.Registry, log: cfg.Log}
	if s.def.Name == "" {
		s.def = profile.Default()
	}
	if s.reg == nil {
		s.reg = metrics.New()
	}
	if s.log == nil {
		s.log = log.New(os.Stderr, "", 0)
	}
	n := cfg.MaxInFlight
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.slots.capacity = n
	s.runners = make(map[string]*core.Runner)
	s.start = time.Now()

	s.reqSeconds = s.reg.Histogram("uvmbench_request_seconds",
		"Wall time of one /v1/experiments request.", metrics.DefSecondsBuckets)
	s.httpInflight = s.reg.Gauge("uvmbench_requests_inflight",
		"HTTP requests currently being served.")
	s.expInflight = s.reg.Gauge("uvmbench_experiments_inflight",
		"Experiment requests currently holding an admission slot.")
	s.slotsUsed = s.reg.Gauge("uvmbench_admission_slots_used",
		"Worker slots currently claimed by admitted experiment requests.")
	s.rejected = s.reg.Counter("uvmbench_admission_rejections_total",
		"Experiment requests rejected with 429 because the worker-slot budget was exhausted.")
	s.goroutines = s.reg.Gauge("uvmbench_process_goroutines",
		"Goroutines at scrape time.")
	s.uptimeSeconds = s.reg.Gauge("uvmbench_process_uptime_seconds",
		"Seconds since the server started, at scrape time.")

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.handler = s.instrument(mux)
	return s
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the server's root handler (logging and metrics
// middleware included), for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// runnerFor returns the shared base runner for one hardware profile,
// creating and instrumenting it on first use. All requests on the same
// machine share one runner family — one cell cache, one executor — so
// repeated specs are memory hits and concurrent duplicates singleflight.
func (s *Server) runnerFor(p profile.Profile) *core.Runner {
	fp := p.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[fp]; ok {
		return r
	}
	r := core.NewRunnerFor(p)
	r.Parallelism = s.cfg.Parallelism
	r.Store = s.cfg.Store
	r.InstrumentMetrics(s.reg)
	s.runners[fp] = r
	return r
}

// statusWriter captures the status code and byte count for the request
// log and the per-code response counters.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument wraps the mux with the observability middleware: request
// IDs, one structured log line per request, in-flight gauge, per-code
// response counters, and the experiment-request latency histogram.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%06x", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		s.httpInflight.Add(1)
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.httpInflight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if r.URL.Path == "/v1/experiments" {
			s.reqSeconds.Observe(dur.Seconds())
		}
		s.reg.Counter(fmt.Sprintf(`uvmbench_http_responses_total{code="%d"}`, sw.status),
			"HTTP responses by status code.").Inc()
		s.log.Printf("ts=%s id=%s method=%s path=%s status=%d dur_ms=%.3f bytes=%d",
			start.UTC().Format(time.RFC3339Nano), id, r.Method, r.URL.Path,
			sw.status, float64(dur.Microseconds())/1000, sw.bytes)
	})
}

// httpError writes a one-line JSON error document.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{%q: %q}\n", "error", msg)
}

// handleExperiments serves POST /v1/experiments: decode and validate
// the spec, admit or 429, run the figures, and reply with the same
// bytes the CLI's -json mode prints for that spec.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "use POST with a JSON experiment spec")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Admission weight is the request's executor width: intra-cell
	// fan-out shares the same token pool, so it adds no workers.
	width := s.cfg.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	granted, ok := s.slots.tryAcquire(width)
	if !ok {
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "worker-slot budget exhausted; retry shortly")
		return
	}
	s.expInflight.Add(1)
	s.slotsUsed.Add(float64(granted))
	defer func() {
		s.slots.release(granted)
		s.expInflight.Add(-1)
		s.slotsUsed.Add(-float64(granted))
	}()

	req, err := ParseSpec(http.MaxBytesReader(w, r.Body, 1<<20), s.def)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	rr := req.Runner(s.runnerFor(req.Profile))

	// Nothing reaches the ResponseWriter until every figure succeeded,
	// so errors still get a clean error document.
	var buf bytes.Buffer
	for _, fig := range req.expanded() {
		doc, err := Figure(rr, fig, req.FigureOptions)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		js, err := core.RenderJSON(doc)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		buf.WriteString(js)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// handleMetrics serves the Prometheus text exposition, refreshing the
// scrape-time process gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.goroutines.Set(float64(runtime.NumGoroutine()))
	s.uptimeSeconds.Set(time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Printf("ts=%s metrics write failed: %v", time.Now().UTC().Format(time.RFC3339Nano), err)
	}
}

// handleHealthz reports readiness: not draining, and (when a store is
// configured) the store directory still opens and probes writable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.cfg.StoreDir != "" {
		if _, err := store.Open(s.cfg.StoreDir); err != nil {
			httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("store probe: %v", err))
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ListenAndServe binds addr and serves until ctx is cancelled, then
// drains gracefully: readiness flips to 503, in-flight requests finish,
// and the listener closes.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Printf("uvmbench serve: listening on http://%s", ln.Addr())
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled (graceful drain) or the
// listener fails.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.log.Printf("uvmbench serve: draining")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed
	return err
}
