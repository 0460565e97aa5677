// Command ledger measures the benchmark ledger: every gated benchmark
// and process wall, one row each, with its layer and unit.
//
//	go run ./scripts/ledger write   measure and write BENCH.json
//	go run ./scripts/ledger check   measure into BENCH_current.json and
//	                                gate it against BENCH.json
//
// Run it from the repository root. It builds ./cmd/uvmbench and each
// benchmarked package's test binary once and takes every sample from
// those binaries. A row's value is the median of samplesPerRow fresh
// processes, so one noisy sample neither fails nor passes a gate, and
// every sample of a 1x row pays the process's first-call cost.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	// samplesPerRow is odd, so a median is one of the samples. At three,
	// BenchmarkServeWarmHit read past its limit in two of three checks
	// on a 2-vCPU VM (EXPERIMENTS.md).
	samplesPerRow = 5

	// speedupFloor is the least cold/warm -cache-dir wall ratio: the
	// cell store's promise, absolute rather than relative to a baseline.
	speedupFloor = 5.0
)

// limits is the gate of each unit: a row may read at most this many
// times its baseline, so a zero-alloc row must stay at zero.
var limits = map[string]float64{"ns/op": 3, "allocs/op": 2, "s": 2}

// A row is one measurement: a benchmark in ns/op with its allocs/op, or
// a process wall in seconds.
type row struct {
	Name   string   `json:"name"`
	Layer  string   `json:"layer"`
	Unit   string   `json:"unit"`
	Value  float64  `json:"value"`
	Allocs *float64 `json:"allocs_per_op,omitempty"`
}

type ledger struct {
	Machine string `json:"machine"`
	Samples int    `json:"samples"`
	Rows    []row  `json:"rows"`
}

// A bench is one test-binary process per sample, running the benchmarks
// behind its rows at one count. Rows share a process exactly when they
// always have, so each keeps the first-call cost it had.
type bench struct {
	pkg, count string // package directory, -test.benchtime
	oneCore    bool   // GOMAXPROCS=1
	suffix     string // appended to each benchmark's name
	rows       []row
}

var benches = []bench{
	{pkg: ".", count: "1x", rows: []row{
		{Name: "BenchmarkOversubscription", Layer: "core"},
		{Name: "BenchmarkUVMEvictionMega", Layer: "uvm"},
		{Name: "BenchmarkUVMEvictionMegaScan", Layer: "uvm"},
		{Name: "BenchmarkContextCycle", Layer: "cuda"},
	}},
	{pkg: ".", count: "1x", rows: []row{{Name: "BenchmarkMultiGPU", Layer: "sched"}}},
	{pkg: ".", count: "1x", rows: []row{{Name: "BenchmarkFigureSuite", Layer: "core"}}},
	{pkg: ".", count: "1x", oneCore: true, suffix: "/1core", rows: []row{
		{Name: "BenchmarkColdCellMegaUVM/1core", Layer: "core"},
		{Name: "BenchmarkServeColdFig7/1core", Layer: "serve"},
	}},
	{pkg: ".", count: "1x", suffix: "/multicore", rows: []row{
		{Name: "BenchmarkColdCellMegaUVM/multicore", Layer: "core"},
		{Name: "BenchmarkServeColdFig7/multicore", Layer: "serve"},
	}},
	{pkg: ".", count: "20x", rows: []row{{Name: "BenchmarkUVMOversubStream", Layer: "uvm"}}},
	{pkg: ".", count: "20000x", rows: []row{{Name: "BenchmarkEngineEvents", Layer: "sim"}}},
	{pkg: ".", count: "20x", rows: []row{{Name: "BenchmarkBusStream", Layer: "pcie"}}},
	{pkg: ".", count: "200x", rows: []row{
		{Name: "BenchmarkManagedIteration/uvm", Layer: "uvm"},
		{Name: "BenchmarkManagedIteration/uvm_prefetch", Layer: "uvm"},
	}},
	{pkg: "./internal/seedrng", count: "20000x", rows: []row{
		{Name: "BenchmarkSeedFresh", Layer: "cuda"},
		{Name: "BenchmarkSeedMathRand", Layer: "cuda"},
	}},
	{pkg: ".", count: "100x", rows: []row{{Name: "BenchmarkStoreWarmHit", Layer: "store"}}},
	{pkg: ".", count: "50x", rows: []row{{Name: "BenchmarkServeWarmHit", Layer: "serve"}}},
}

const (
	wallCold = "uvmbench_all_cold_wall_seconds"
	wallWarm = "uvmbench_all_warm_wall_seconds"
)

// walls are the process rows, each a `uvmbench all` at GOMAXPROCS=1:
// with no store, then cold and warm on one fresh -cache-dir per sample.
var walls = []struct {
	row
	args []string
}{
	{row{Name: "uvmbench_all_1core_wall_seconds", Layer: "cmd", Unit: "s"}, []string{"all"}},
	{row{Name: wallCold, Layer: "store", Unit: "s"}, []string{"-cache-dir", "cellstore", "all"}},
	{row{Name: wallWarm, Layer: "store", Unit: "s"}, []string{"-cache-dir", "cellstore", "all"}},
}

func main() {
	if len(os.Args) != 2 || (os.Args[1] != "write" && os.Args[1] != "check") {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/ledger write|check")
		os.Exit(2)
	}
	if err := run(os.Args[1] == "write"); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func run(write bool) error {
	tmp, err := os.MkdirTemp("", "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cur, err := measure(tmp)
	if err != nil {
		return err
	}
	if write {
		return save("BENCH.json", cur)
	}
	if err := save("BENCH_current.json", cur); err != nil {
		return err
	}
	var base ledger
	data, err := os.ReadFile("BENCH.json")
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	lines, ok := gate(base, cur)
	fmt.Println(strings.Join(lines, "\n"))
	if !ok {
		return errors.New("a gate failed")
	}
	return nil
}

// measure builds the binaries into tmp, then takes samplesPerRow rounds
// of one fresh process per bench and per wall.
func measure(tmp string) (ledger, error) {
	uvmbench := filepath.Join(tmp, "uvmbench")
	if _, _, err := sample(".", false, "go", "build", "-o", uvmbench, "./cmd/uvmbench"); err != nil {
		return ledger{}, err
	}
	bins := map[string]string{}
	for _, b := range benches {
		if bins[b.pkg] == "" {
			bins[b.pkg] = filepath.Join(tmp, fmt.Sprintf("pkg%d.test", len(bins)))
			if _, _, err := sample(".", false, "go", "test", "-c", "-o", bins[b.pkg], b.pkg); err != nil {
				return ledger{}, err
			}
		}
	}
	values, allocs := map[string][]float64{}, map[string][]float64{}
	for i := 1; i <= samplesPerRow; i++ {
		fmt.Printf("sample %d/%d\n", i, samplesPerRow)
		for _, b := range benches {
			var names []string
			for _, r := range b.rows {
				if name, _, _ := strings.Cut(r.Name, "/"); !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
			out, _, err := sample(b.pkg, b.oneCore, bins[b.pkg], "-test.run=^$", "-test.benchmem",
				"-test.bench=^("+strings.Join(names, "|")+")$", "-test.benchtime="+b.count)
			if err != nil {
				return ledger{}, err
			}
			for _, line := range strings.Split(out, "\n") {
				if name, ns, a, ok := parseBench(line); ok {
					name += b.suffix
					values[name] = append(values[name], ns)
					allocs[name] = append(allocs[name], a)
				}
			}
		}
		for _, w := range walls {
			_, secs, err := sample(tmp, true, uvmbench, w.args...)
			if err != nil {
				return ledger{}, err
			}
			values[w.Name] = append(values[w.Name], math.Round(secs*1000)/1000)
		}
		if err := os.RemoveAll(filepath.Join(tmp, "cellstore")); err != nil {
			return ledger{}, err
		}
	}

	var rows []row
	for _, b := range benches {
		rows = append(rows, b.rows...)
	}
	for _, w := range walls {
		rows = append(rows, w.row)
	}
	l := ledger{Samples: samplesPerRow,
		Machine: fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())}
	for _, r := range rows {
		if n := len(values[r.Name]); n != samplesPerRow {
			return ledger{}, fmt.Errorf("%s: %d samples, want %d", r.Name, n, samplesPerRow)
		}
		r.Value = median(values[r.Name])
		if a, ok := allocs[r.Name]; ok { // a benchmark row
			m := median(a)
			r.Unit, r.Allocs = "ns/op", &m
		}
		l.Rows = append(l.Rows, r)
	}
	return l, nil
}

// sample runs one process of name and args in dir, pinned to one core
// when oneCore, and returns its output and wall time in seconds.
func sample(dir string, oneCore bool, name string, args ...string) (string, float64, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Env = dir, os.Environ()
	if oneCore {
		cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
	}
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("%s: %v\n%s", cmd, err, out)
	}
	return string(out), time.Since(start).Seconds(), nil
}

// parseBench reads one line of `go test -bench -benchmem` output: the
// benchmark's name without its -GOMAXPROCS suffix, ns/op and allocs/op.
// Any other line, including a result without an allocs/op column, is
// not a row.
func parseBench(line string) (name string, ns, allocs float64, ok bool) {
	f := strings.Fields(line)
	if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", 0, 0, false
	}
	name = f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var gotNs, gotAllocs bool
	for i := 2; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i-1], 64)
		switch {
		case err != nil:
		case f[i] == "ns/op":
			ns, gotNs = v, true
		case f[i] == "allocs/op":
			allocs, gotAllocs = v, true
		}
	}
	return name, ns, allocs, gotNs && gotAllocs
}

// gate judges cur against base: every base row must be in cur and
// within its unit's limit, and the cold/warm store speedup must reach
// speedupFloor. It returns one report line per check and whether all
// of them passed.
func gate(base, cur ledger) (lines []string, ok bool) {
	ok = true
	check := func(pass bool, format string, args ...any) {
		status := "ok  "
		if !pass {
			status, ok = "FAIL", false
		}
		lines = append(lines, status+" "+fmt.Sprintf(format, args...))
	}
	within := func(name, unit string, c, b float64) {
		ratio := "zero baseline"
		if b > 0 {
			ratio = fmt.Sprintf("%.2fx", c/b)
		}
		check(c <= limits[unit]*b, "%s: %s %s vs baseline %s (%s, limit %gx)", name,
			strconv.FormatFloat(c, 'f', -1, 64), unit, strconv.FormatFloat(b, 'f', -1, 64), ratio, limits[unit])
	}
	byName := map[string]row{}
	for _, r := range cur.Rows {
		byName[r.Name] = r
	}
	for _, b := range base.Rows {
		c, found := byName[b.Name]
		if !found {
			check(false, "%s: missing from the run", b.Name)
			continue
		}
		within(b.Name, b.Unit, c.Value, b.Value)
		if b.Allocs != nil && c.Allocs == nil {
			check(false, "%s: allocs/op missing from the run", b.Name)
		} else if b.Allocs != nil {
			within(b.Name, "allocs/op", *c.Allocs, *b.Allocs)
		}
	}
	cold, okCold := byName[wallCold]
	warm, okWarm := byName[wallWarm]
	if okCold && okWarm {
		check(cold.Value >= speedupFloor*warm.Value, "cold/warm -cache-dir speedup: %.2fx (cold %gs, warm %gs, floor %gx)",
			cold.Value/warm.Value, cold.Value, warm.Value, speedupFloor)
	}
	return lines, ok
}

// median returns the middle of an odd number of values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func save(path string, l ledger) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(l.Rows))
	return nil
}
