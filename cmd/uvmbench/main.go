// Command uvmbench regenerates the paper's tables and figures on the
// simulated CPU-GPU system. Each subcommand corresponds to one artifact
// of the evaluation:
//
//	uvmbench table3            input-size parameter table
//	uvmbench fig4              micro exec-time distributions across sizes
//	uvmbench fig5              std/mean across sizes
//	uvmbench fig6              per-run breakdowns at Mega (memcpy noise)
//	uvmbench fig7              micro multi-setup comparison (Large+Super)
//	uvmbench fig8              application multi-setup comparison (Super)
//	uvmbench fig9              instruction-mix counters (gemm/lud/yolov3)
//	uvmbench fig10             L1 miss-rate counters (gemm/lud/yolov3)
//	uvmbench fig11             block-count sensitivity sweep
//	uvmbench fig12             threads-per-block sensitivity sweep
//	uvmbench fig13             L1/shared partition sensitivity sweep
//	uvmbench fig14             inter-job pipeline model (§6)
//	uvmbench multigpu          fig14 headroom under multi-GPU contention
//	uvmbench micro|apps        §4.1 geomean summaries
//	uvmbench trace             record a Perfetto-loadable run timeline
//	uvmbench list              workload inventory
//	uvmbench profiles          hardware-profile inventory (list|show|dump)
//	uvmbench compare-profiles  one workload across hardware profiles
//	uvmbench serve             experiment HTTP service with /metrics
//	uvmbench all               everything above
//
// Flags (before the subcommand): -i iterations (default 30), -seed,
// -size (overrides the default class where applicable; a size that
// cannot fit the machine's memory under an explicit-copy setup fails
// before anything simulates), -par executor workers (0 = all cores,
// 1 = serial; cells and each cell's iterations fan out across one pool
// of that width and merge in serial order, so output is byte-identical
// at any setting), -json (emit figure data as a JSON document instead
// of the text table), -profile (hardware profile: a built-in name or a
// profile JSON file; every experiment runs on that machine), -profiles
// (the comma-separated machines compare-profiles sweeps), -setups (a
// comma-separated subset of registered setup names — e.g.
// standard,uvm,uvm_zerocopy — that every study iterates instead of the
// paper's default five; unknown names fail upfront with a nearest-name
// hint), -workload and -setup (select the traced/compared run; an empty
// -setup traces every study setup), -gpus, -topology and -policy (the
// multigpu grid: device-count list, interconnect shapes and placement
// policy; with the trace subcommand they select per-GPU schedule
// timelines instead), -out (directory for trace files),
// -cpuprofile and -memprofile
// (write pprof profiles covering the whole invocation), and -cache-dir
// (the persistent cell store: hits skip simulation, misses are written
// back, so a warm rerun of any sweep costs file reads, not simulation).
//
// The run flags (-i, -seed, -size, -jobs, -workload, -gpus, -topology,
// -policy, -setups, -profile, -profiles) build one serve.Request, the
// run description a POST /v1/experiments spec resolves to, with the
// same defaults; Request.Validate checks it before anything simulates.
//
// The serve subcommand runs the experiment service (internal/serve):
// POST /v1/experiments computes figures (responses byte-identical to
// -json output for the same spec), /metrics exposes the Prometheus
// registry, /healthz reports readiness, /debug/pprof/ serves profiles.
// Each request's spec describes its run, so serve reads only -addr,
// -max-inflight (a worker-slot budget: each admitted request claims
// its executor width), -par, -cache-dir and -profile (the default
// machine for specs that name none), fails on any other flag, and
// drains gracefully on SIGTERM.
//
// The trace subcommand writes one Chrome trace-event file per setup,
// named trace_<workload>_<setup>.json, loadable in Perfetto or
// chrome://tracing. Files are byte-identical across runs with the same
// seed and any -par value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/metrics"
	"uvmasim/internal/nearest"
	"uvmasim/internal/profile"
	"uvmasim/internal/serve"
	"uvmasim/internal/store"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uvmbench:", err)
		os.Exit(1)
	}
}

// options carries the invocation settings dispatch needs beyond the
// Runner: where output goes and in which form, the trace selection,
// the arguments after the subcommand and the metrics registry. The run
// itself is the Request.
type options struct {
	req       *serve.Request
	out       io.Writer // artifact destination
	json      bool
	setupName string
	outDir    string
	rest      []string // arguments after the subcommand (profiles show/dump)
	// reg is the invocation's metrics registry; traceTotals accumulates
	// the trace subcommand's counter-registry totals. Both feed the
	// cache-summary JSON doc.
	reg         *metrics.Registry
	traceTotals map[string]float64
}

// emit prints either the text rendering or the JSON document, depending
// on the -json flag.
func (o *options) emit(text func() string, doc core.FigureDoc) error {
	if !o.json {
		fmt.Fprint(o.out, text())
		return nil
	}
	s, err := core.RenderJSON(doc)
	if err != nil {
		return err
	}
	fmt.Fprint(o.out, s)
	return nil
}

// commandNames lists every subcommand — the CLI-only ones plus the
// figures serve.Figure renders — for upfront validation (a typo in
// `fig4,nope` must fail before fig4 spends seconds simulating).
var commandNames = append([]string{"list", "trace", "profiles", "serve", "all"},
	serve.FigureNames...)

func run(args []string) error {
	// The run flags bind straight into the Request, whose constructor
	// holds the defaults the server applies to an empty spec.
	req := serve.NewRequest(profile.Default())
	o := &options{req: req, out: os.Stdout}
	fs := flag.NewFlagSet("uvmbench", flag.ContinueOnError)
	// The flag package prints its own error + full flag dump before
	// returning it, and main prints the error again — a duplicated,
	// noisy failure for a typo like `-iters`. Silence the package's
	// copy; parse errors are reported once by main, with a nearest-flag
	// suggestion (see flagError).
	fs.SetOutput(io.Discard)
	fs.IntVar(&req.Iters, "i", req.Iters, "iterations per configuration")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "base random seed")
	fs.StringVar(&req.Size, "size", "", "override input-size class (tiny..mega)")
	fs.IntVar(&req.Jobs, "jobs", req.Jobs, "batch size for the fig14 pipeline model and the multigpu grid")
	fs.StringVar(&req.GPUs, "gpus", "", "multigpu: comma-separated device counts to sweep (empty = "+serve.DefaultGPUs+")")
	fs.StringVar(&req.Topology, "topology", "", "multigpu: comma-separated interconnects, pcie-switch and/or nvlink (empty = "+serve.DefaultTopology+")")
	fs.StringVar(&req.Policy, "policy", "", "multigpu: placement policy, first-fit, least-loaded or bandwidth-aware (empty = "+serve.DefaultPolicy+")")
	par := fs.Int("par", 0, "experiment executor workers (0 = all cores, 1 = serial); output is identical at any value")
	fs.BoolVar(&o.json, "json", false, "emit figure data as a JSON document instead of a text table")
	fs.StringVar(&req.Workload, "workload", req.Workload, "workload for the trace and compare-profiles subcommands")
	fs.StringVar(&o.setupName, "setup", "", "setup for the trace subcommand (empty = every study setup)")
	setupsCSV := fs.String("setups", "", "comma-separated registered setups every study iterates (empty = the paper's five)")
	fs.StringVar(&o.outDir, "out", ".", "directory for trace output files")
	prof := fs.String("profile", profile.DefaultName, "hardware profile: a built-in name (see 'uvmbench profiles') or a profile JSON file")
	profs := fs.String("profiles", "", "comma-separated profiles for compare-profiles (empty = all built-ins)")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	cacheDir := fs.String("cache-dir", "", "directory of the persistent cell store (created if missing); cell hits skip simulation, misses are written back")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address for the serve subcommand")
	maxInflight := fs.Int("max-inflight", 0, "serve: max concurrently admitted experiment requests (0 = one per core); excess requests get 429")
	usage := func(w io.Writer) {
		fmt.Fprintln(w, "usage: uvmbench [flags] <subcommand>[,<subcommand>...]")
		fmt.Fprintln(w, "       uvmbench [flags] serve")
		fmt.Fprintln(w, "serve reads only -addr -max-inflight -par -cache-dir -profile")
		fmt.Fprintln(w, "subcommands:", strings.Join(commandNames, " "))
		fmt.Fprintln(w, "flags:")
		fs.SetOutput(w)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	// Parse calls fs.Usage itself on every error; keep that a no-op so a
	// typo gets one diagnostic line, not a flag dump, and print the
	// usage explicitly on -h and on a missing subcommand.
	fs.Usage = func() {}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(os.Stdout)
			return nil
		}
		return flagError(fs, err)
	}
	if fs.NArg() < 1 {
		usage(os.Stderr)
		return fmt.Errorf("missing subcommand (try: uvmbench all)")
	}
	if *par < 0 {
		return fmt.Errorf("-par must be >= 0, got %d", *par)
	}

	// Validate everything cheap before the first simulation: subcommand
	// names, the Request, output paths, the cell-store directory. A typo
	// in any of them must fail in milliseconds, not after a full sweep.
	cmds := strings.Split(fs.Arg(0), ",")
	for _, cmd := range cmds {
		if !slices.Contains(commandNames, cmd) {
			return fmt.Errorf("unknown subcommand %q%s", cmd, nearest.Hint(cmd, commandNames, 2))
		}
	}
	o.rest = fs.Args()[1:]
	if slices.Contains(cmds, "serve") {
		// Each request's spec describes its run, so serve reads only the
		// process settings.
		if len(cmds) != 1 {
			return fmt.Errorf("serve cannot be combined with other subcommands")
		}
		if err := onlyFlags(fs, "serve", "addr", "max-inflight", "par", "cache-dir", "profile"); err != nil {
			return err
		}
		return runServe(*addr, *maxInflight, *par, *cacheDir, *prof)
	}
	var err error
	if *setupsCSV != "" {
		if req.Setups, err = cuda.ParseSetupList(*setupsCSV); err != nil {
			return fmt.Errorf("-setups: %w", err)
		}
	}
	if req.Profile, err = profile.Resolve(*prof); err != nil {
		return err
	}
	if req.Profiles, err = resolveProfiles(*profs); err != nil {
		return err
	}
	for _, cmd := range cmds {
		if cmd == "all" || serve.IsFigure(cmd) {
			req.Figures = append(req.Figures, cmd)
		}
	}
	if err := req.Validate(); err != nil {
		return err
	}
	if slices.Contains(cmds, "trace") {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
	}

	// Every invocation carries a metrics registry: batch runs expose the
	// same counter/histogram numbers in the cache-summary doc that a
	// serve process exports over /metrics.
	o.reg = metrics.New()
	base := core.NewRunnerFor(req.Profile)
	base.Parallelism = *par
	base.InstrumentMetrics(o.reg)
	if *cacheDir != "" {
		dir, err := store.Open(*cacheDir)
		if err != nil {
			return err
		}
		dir.Instrument(o.reg)
		base.Store = dir
	}
	r := req.Runner(base)

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}

	for _, cmd := range cmds {
		if err := dispatch(r, cmd, o); err != nil {
			stopProfiles()
			return err
		}
	}
	if slices.Contains(cmds, "all") || r.Store != nil {
		// The two-tier traffic summary rides along with every
		// store-backed run (satellite: not just `all`): on stderr, so
		// stdout artifacts stay byte-comparable cold vs warm.
		printCacheSummary(r, o)
	}
	return stopProfiles()
}

// onlyFlags rejects every flag set on the command line that cmd does
// not read, naming it: a run flag given to serve would otherwise be
// silently dropped.
func onlyFlags(fs *flag.FlagSet, cmd string, reads ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s does not apply to %s, which reads only -%s",
				f.Name, cmd, strings.Join(reads, ", -"))
		}
	})
	return err
}

// resolveProfiles parses a -profiles list (built-in names or profile
// JSON files) into validated profiles; an empty list is nil, which
// compare-profiles reads as every built-in machine.
func resolveProfiles(list string) ([]profile.Profile, error) {
	var ps []profile.Profile
	for _, arg := range strings.Split(list, ",") {
		if arg = strings.TrimSpace(arg); arg != "" {
			p, err := profile.Resolve(arg)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
	}
	if ps == nil && strings.TrimSpace(list) != "" {
		return nil, fmt.Errorf("-profiles names no profiles")
	}
	return ps, nil
}

// printCacheSummary reports both cache tiers after an `all` or any
// store-backed run — to stderr, so stdout artifacts stay
// byte-comparable between cold and warm runs whose cache traffic
// necessarily differs. In JSON mode the doc also carries the
// full metrics-registry snapshot and the trace subcommand's
// counter-registry totals, so batch runs expose the same numbers a
// serve process exports over /metrics.
func printCacheSummary(r *core.Runner, o *options) {
	if o.json {
		doc := core.FigureDoc{Figure: "cache_summary", Data: struct {
			MemoryHits    uint64             `json:"memory_hits"`
			MemoryMisses  uint64             `json:"memory_misses"`
			StoreHits     uint64             `json:"store_hits"`
			StoreMisses   uint64             `json:"store_misses"`
			TraceCounters map[string]float64 `json:"trace_counters,omitempty"`
			Metrics       []metrics.Snapshot `json:"metrics,omitempty"`
		}{r.CacheHits(), r.CacheMisses(), r.StoreHits(), r.StoreMisses(),
			o.traceTotals, o.reg.Snapshot()}}
		if s, err := core.RenderJSON(doc); err == nil {
			fmt.Fprint(os.Stderr, s)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "cache: %d memory hits, %d memory misses; store: %d hits, %d misses\n",
		r.CacheHits(), r.CacheMisses(), r.StoreHits(), r.StoreMisses())
}

// startProfiles begins CPU profiling and/or arms a heap snapshot,
// covering every subcommand of the invocation. Both files are created
// up front, so a mistyped path fails before any simulation runs — the
// heap snapshot itself is still taken at stop time, after the run. The
// returned stop function finishes both files; it is also called
// (ignoring its error) on the failure path so a partial CPU profile is
// still flushed.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile, memFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		memFile = f
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memFile != nil {
			// Collect garbage first so the snapshot shows live retained
			// memory (the arenas), not yet-unswept iteration garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				memFile.Close()
				return err
			}
			return memFile.Close()
		}
		return nil
	}, nil
}

// flagError rewrites a flag.Parse error for single-line reporting. For
// an unknown flag it appends the nearest registered flag: a registered
// name that prefixes the typo wins (so `-iters` suggests `-i`, the
// iterations flag), otherwise the smallest edit distance within 2.
func flagError(fs *flag.FlagSet, err error) error {
	const unknown = "flag provided but not defined: -"
	msg := err.Error()
	if !strings.HasPrefix(msg, unknown) {
		return err
	}
	name := strings.TrimPrefix(msg, unknown)
	best, bestDist := "", 3
	fs.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(name, f.Name) {
			if bestDist > 0 || len(f.Name) > len(best) {
				best, bestDist = f.Name, 0
			}
			return
		}
		if d := nearest.Distance(name, f.Name); d < bestDist {
			best, bestDist = f.Name, d
		}
	})
	if best != "" {
		return fmt.Errorf("unknown flag -%s (did you mean -%s?)", name, best)
	}
	return fmt.Errorf("unknown flag -%s (run 'uvmbench -h' for the flag list)", name)
}

func dispatch(r *core.Runner, cmd string, o *options) error {
	switch cmd {
	case "list":
		fmt.Fprintln(o.out, "microbenchmarks:")
		for _, w := range workloads.Micro() {
			fmt.Fprintf(o.out, "  %-12s %s\n", w.Name(), w.Domain())
		}
		fmt.Fprintln(o.out, "applications:")
		for _, w := range workloads.Apps() {
			fmt.Fprintf(o.out, "  %-12s %s\n", w.Name(), w.Domain())
		}
		if extras := workloads.Extras(); len(extras) > 0 {
			fmt.Fprintln(o.out, "extras (outside the Table 2 grids, use -workload):")
			for _, w := range extras {
				fmt.Fprintf(o.out, "  %-12s %s\n", w.Name(), w.Domain())
			}
		}
		return nil

	case "profiles":
		return runProfiles(o)

	case "trace":
		return runTrace(r, o)

	case "all":
		for _, sub := range serve.AllFigures {
			if !o.json {
				fmt.Fprintf(o.out, "==== %s ====\n", sub)
			}
			if err := dispatch(r, sub, o); err != nil {
				return err
			}
			if !o.json {
				fmt.Fprintln(o.out)
			}
		}
		return nil
	}
	// Every other subcommand is a figure. The figure dispatch lives in
	// internal/serve and is shared with the HTTP service, which is what
	// keeps POST /v1/experiments responses byte-identical to -json
	// output: both sides render the same documents from the same code.
	text, doc, err := serve.Figure(r, cmd, o.req.FigureOptions)
	if err != nil {
		return err
	}
	return o.emit(text, doc)
}

// runMultiGPUTrace writes per-GPU schedule timelines for the multigpu
// grid: one Chrome trace-event file per (topology, device count,
// schedule), each with host-alloc/transfer/kernel rows per GPU. It is
// selected by passing any of -gpus/-topology/-policy to the trace
// subcommand, and replays the same deterministic schedules the multigpu
// figure measures (same workload, setup and default grid).
func runMultiGPUTrace(r *core.Runner, o *options) error {
	size, err := o.req.SizeOr(workloads.Super)
	if err != nil {
		return err
	}
	gpus, topos, policy, err := serve.ResolveMultiGPU(o.req.FigureOptions)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var infos []any
	for _, kind := range topos {
		for _, g := range gpus {
			for _, schedName := range []string{"serial", "pipelined"} {
				st, err := r.MultiGPUTrace("vector_seq", cuda.UVMPrefetchAsync, size,
					o.req.Jobs, kind, g, policy, schedName == "pipelined")
				if err != nil {
					return err
				}
				path := filepath.Join(o.outDir,
					fmt.Sprintf("trace_multigpu_%s_%d_%s.json", kind, g, schedName))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := st.WriteChromeTrace(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				if o.json {
					infos = append(infos, struct {
						Topology   string  `json:"topology"`
						GPUs       int     `json:"gpus"`
						Schedule   string  `json:"schedule"`
						Path       string  `json:"path"`
						Jobs       int     `json:"jobs"`
						MakespanNs float64 `json:"makespan_ns"`
					}{string(kind), g, schedName, path, len(st.Jobs), st.Makespan})
					continue
				}
				fmt.Fprintf(o.out, "wrote %s (%d jobs, makespan %12.2f ms)\n",
					path, len(st.Jobs), st.Makespan/1e6)
			}
		}
	}
	if o.json {
		s, err := core.RenderJSON(core.FigureDoc{Figure: "trace", Data: infos})
		if err != nil {
			return err
		}
		fmt.Fprint(o.out, s)
	}
	return nil
}

// runProfiles implements the profiles subcommand. With no argument (or
// `list`) it prints the built-in machine inventory; `show <name|file>`
// prints one profile's summary; `dump <name|file>` writes the complete
// JSON definition to stdout, which is itself a valid -profile file.
func runProfiles(o *options) error {
	if len(o.rest) == 0 || o.rest[0] == "list" {
		for _, p := range profile.Builtins() {
			def := ""
			if p.Name == profile.DefaultName {
				def = " (default)"
			}
			fmt.Fprintf(o.out, "%-18s %s  %s%s\n", p.Name, p.Fingerprint(), p.Description, def)
		}
		return nil
	}
	verb := o.rest[0]
	switch verb {
	case "show", "dump":
		if len(o.rest) != 2 {
			return fmt.Errorf("usage: uvmbench profiles %s <name|file.json>", verb)
		}
		p, err := profile.Resolve(o.rest[1])
		if err != nil {
			return err
		}
		if verb == "show" {
			fmt.Fprint(o.out, p.Describe())
			return nil
		}
		return profile.Save(o.out, p)
	}
	return fmt.Errorf("unknown profiles verb %q (expected list, show or dump)%s",
		verb, nearest.Hint(verb, []string{"list", "show", "dump"}, 2))
}

// runTrace records one timeline per requested setup and writes each as
// a Chrome trace-event file under -out. The runs fan out across the
// executor (each binds its own tracer), and the files are byte-identical
// for a given seed at any -par.
func runTrace(r *core.Runner, o *options) error {
	if o.req.GPUs != "" || o.req.Topology != "" || o.req.Policy != "" {
		return runMultiGPUTrace(r, o)
	}
	size, err := o.req.SizeOr(workloads.Large)
	if err != nil {
		return err
	}
	setups := o.req.Setups
	if len(setups) == 0 {
		setups = cuda.PaperSetups()
	}
	if o.setupName != "" {
		setup, err := cuda.ParseSetup(o.setupName)
		if err != nil {
			return err
		}
		setups = []cuda.Setup{setup}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}

	results, err := r.TraceSetups(o.req.Workload, size, setups)
	if err != nil {
		return err
	}

	infos := make([]any, 0, len(results))
	for _, res := range results {
		path := filepath.Join(o.outDir, fmt.Sprintf("trace_%s_%s.json", res.Workload, res.Setup))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		m := res.Tracer.Metrics()
		// Fold this run's counter registry into the invocation totals the
		// cache-summary doc reports (satellite: batch runs expose the
		// same numbers /metrics serves).
		if len(m.Counters) > 0 {
			if o.traceTotals == nil {
				o.traceTotals = make(map[string]float64, len(m.Counters))
			}
			for name, v := range m.Counters {
				o.traceTotals[name] += v
			}
		}
		if o.json {
			busy := make(map[string]float64, trace.NumTracks)
			for t := 0; t < trace.NumTracks; t++ {
				tk := trace.Track(t)
				if b := m.Busy(tk); b > 0 {
					busy[tk.String()] = b
				}
			}
			infos = append(infos, struct {
				Workload string             `json:"workload"`
				Setup    cuda.Setup         `json:"setup"`
				Size     workloads.Size     `json:"size"`
				Path     string             `json:"path"`
				Events   int                `json:"events"`
				BusyNs   map[string]float64 `json:"busy_ns_by_track"`
			}{res.Workload, res.Setup, res.Size, path, res.Tracer.Len(), busy})
			continue
		}
		fmt.Fprintf(o.out, "wrote %s (%d events)\n", path, res.Tracer.Len())
		for t := 0; t < trace.NumTracks; t++ {
			tk := trace.Track(t)
			tm := m.Tracks[t]
			if tm.Spans == 0 && tm.Instants == 0 {
				continue
			}
			fmt.Fprintf(o.out, "  %-16s busy %12.2f ms  spans %5d  instants %5d\n",
				tk, tm.Busy/1e6, tm.Spans, tm.Instants)
		}
	}
	if o.json {
		s, err := core.RenderJSON(core.FigureDoc{Figure: "trace", Data: infos})
		if err != nil {
			return err
		}
		fmt.Fprint(o.out, s)
	}
	return nil
}
