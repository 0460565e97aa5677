// Command reach is the production-reach guard: it finds every function
// that no program invocation runs and checks that list against
// scripts/reach/allow.txt.
//
//	go run ./scripts/reach
//
// Run it from the repository root. It builds ./cmd/uvmbench and every
// ./examples/* program with coverage of the whole module, runs the
// invocations below into one GOCOVERDIR, and reads
// `go tool covdata func`. A function at 0.0% is unreached. The guard
// fails when an unreached function is missing from allow.txt, and when
// a listed function is reached or no longer exists.
//
// allow.txt has one line per file: the file's path from the repository
// root, the unreached functions kept in it, and after '#' the reason.
// A method is written Type.Method, without the '*' covdata prints for a
// pointer receiver:
//
//	internal/uvm/refscan.go Manager.victimScan  # reference oracle
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

const allowFile = "scripts/reach/allow.txt"

// allSetups is every registered setup, for the runs that study all seven.
const allSetups = "standard,async,uvm,uvm_prefetch,uvm_prefetch_async,uvm_zerocopy,uvm_smcopy"

// A run is one uvmbench process, started in the scratch directory so
// that relative paths (a cache dir, a trace dir, a profile file) land
// there. A run with fail set is a bad input and must exit non-zero;
// stdout, when set, names the file its output goes to.
type run struct {
	args   string
	fail   bool
	stdout string
}

// runs is the invocation list: every figure on every built-in profile,
// the cell store cold and warm, the benchmark's oversubscription
// operation, every setup at Super, the trace and multigpu forms, the
// profile and list subcommands and the input errors a user can make.
// The V100 trace is the traced evicting run, the one caller of
// uvm.Manager.evicted.
var runs = []run{
	{args: "-i 2 all"},
	{args: "-i 2 -json all"},
	{args: "-i 2 -profile v100-16g-pcie3 all"},
	{args: "-i 2 -json -profile v100-16g-pcie3 all"},
	{args: "-i 2 -profile a100-80g-sxm all"},
	{args: "-i 2 -json -profile a100-80g-sxm all"},
	{args: "-i 2 -profile grace-hopper-c2c all"},
	{args: "-i 2 -json -profile grace-hopper-c2c all"},
	{args: "-i 2 -cache-dir cellstore all"},
	{args: "-i 2 -cache-dir cellstore all"},
	{args: "-i 2 -json -cache-dir cellstore all"},
	{args: "-json -i 4 -size mega -setups standard,uvm,uvm_prefetch,uvm_prefetch_async oversub,micro"},
	{args: "-i 2 -size super -setups " + allSetups + " micro,apps"},
	{args: "-i 2 -json -size super -setups " + allSetups + " micro,apps"},
	{args: "-i 2 -size medium -setups " + allSetups + " -json -workload vector_gather compare-profiles"},
	{args: "-workload gemm -size large -out traces trace"},
	{args: "-json -workload vector_seq -size mega -setups uvm,uvm_prefetch -out traces trace"},
	{args: "-i 2 -gpus 2 -out traces trace"},
	{args: "-profile v100-16g-pcie3 -size mega -workload vector_seq -setup uvm -out traces trace"},
	{args: "-i 2 -gpus 1,2,4,8 -topology pcie-switch,nvlink multigpu"},
	{args: "-i 2 -json -policy bandwidth-aware -gpus 2,4 multigpu"},
	{args: "-i 2 compare-profiles"},
	{args: "-i 2 -json -workload lud -profiles a100-40g-pcie4,v100-16g-pcie3 compare-profiles"},
	{args: "profiles list"},
	{args: "profiles show v100-16g-pcie3"},
	{args: "profiles dump v100-16g-pcie3", stdout: "dump.json"},
	{args: "-profile dump.json -i 1 fig7"},
	{args: "list"},
	{args: "-json list"},
	{args: "-iters 2 all", fail: true},
	{args: "-i 2 nosuch", fail: true},
	{args: "-setups uvmm fig7", fail: true},
	{args: "-size huge fig7", fail: true},
	{args: "-profile nosuch fig7", fail: true},
}

// A request is one HTTP call to the serve process and the status it
// must answer.
type request struct {
	method, path, body string
	status             int
}

// requests drive one `uvmbench serve` on a cell store: a cold and a
// warm fig7, a seeded subset, every figure, a multigpu spec, three bad
// specs, the metrics page and the profiler index.
var requests = []request{
	{"POST", "/v1/experiments", `{"figure":"fig7"}`, http.StatusOK},
	{"POST", "/v1/experiments", `{"figure":"fig7"}`, http.StatusOK},
	{"POST", "/v1/experiments", `{"figure":"fig7","seed":7,"iters":2,"setups":["standard","uvm"]}`, http.StatusOK},
	{"POST", "/v1/experiments", `{"figure":"all","iters":1}`, http.StatusOK},
	{"POST", "/v1/experiments", `{"figure":"multigpu","iters":2,"gpus":[1,2],"topology":["nvlink"],"policy":"first-fit"}`, http.StatusOK},
	{"POST", "/v1/experiments", `{"figure":"fig99"}`, http.StatusBadRequest},
	{"POST", "/v1/experiments", `{"figure":"fig7","iter":2}`, http.StatusBadRequest},
	{"POST", "/v1/experiments", `{"figure":`, http.StatusBadRequest},
	{"GET", "/metrics", "", http.StatusOK},
	{"GET", "/debug/pprof/", "", http.StatusOK},
}

// examples runs each example program once: its name, then its arguments.
var examples = []string{"quickstart", "advisor -size small", "multijob -jobs 4", "tuner"}

func main() {
	if len(os.Args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/reach")
		os.Exit(2)
	}
	if err := reach(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func reach() error {
	allowText, err := os.ReadFile(allowFile)
	if err != nil {
		return err
	}
	allow, err := parseAllow(string(allowText))
	if err != nil {
		return fmt.Errorf("%s: %w", allowFile, err)
	}
	tmp, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	funcs, err := measure(tmp)
	if err != nil {
		return err
	}
	lines, ok := check(funcs, allow)
	fmt.Println(strings.Join(lines, "\n"))
	if !ok {
		return errors.New("the unreached functions differ from " + allowFile)
	}
	return nil
}

// measure builds the programs into tmp, runs every invocation with one
// GOCOVERDIR and returns each function's coverage, keyed by "path Name".
func measure(tmp string) (map[string]bool, error) {
	mod, err := output(".", nil, "go", "list", "-m")
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(tmp, "bin") + string(filepath.Separator)
	if _, err := output(".", nil, "go", "build", "-cover", "-coverpkg=./...", "-o", bin, "./cmd/uvmbench", "./examples/..."); err != nil {
		return nil, err
	}
	cover := filepath.Join(tmp, "cover")
	if err := os.Mkdir(cover, 0o755); err != nil {
		return nil, err
	}
	env := append(os.Environ(), "GOCOVERDIR="+cover)
	uvmbench := filepath.Join(bin, "uvmbench")
	for _, r := range runs {
		if err := cli(tmp, env, uvmbench, r); err != nil {
			return nil, err
		}
	}
	if err := serveRequests(tmp, env, uvmbench); err != nil {
		return nil, err
	}
	for _, ex := range examples {
		f := strings.Fields(ex)
		if _, err := output(tmp, env, filepath.Join(bin, f[0]), f[1:]...); err != nil {
			return nil, err
		}
	}
	out, err := output(".", nil, "go", "tool", "covdata", "func", "-i="+cover)
	if err != nil {
		return nil, err
	}
	return parseFuncs(out, strings.TrimSpace(mod)+"/")
}

// cli runs one uvmbench invocation in dir.
func cli(dir string, env []string, uvmbench string, r run) error {
	out, err := output(dir, env, uvmbench, strings.Fields(r.args)...)
	var exit *exec.ExitError
	switch {
	case r.fail && err == nil:
		return fmt.Errorf("uvmbench %s: succeeded, want an error", r.args)
	case r.fail && errors.As(err, &exit):
		return nil
	case err != nil:
		return err
	case r.stdout != "":
		return os.WriteFile(filepath.Join(dir, r.stdout), []byte(out), 0o644)
	}
	return nil
}

// serveRequests starts `uvmbench serve` on a free port, makes every
// request, then stops it with SIGTERM: a drained server exits 0 and
// writes its coverage counters.
func serveRequests(dir string, env []string, uvmbench string) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	// The server logs each request to stderr; a file keeps the log
	// readable while the process runs.
	logPath := filepath.Join(dir, "serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	logged := func() string {
		b, _ := os.ReadFile(logPath) // a diagnostic: an unreadable log reads as empty
		return string(b)
	}
	cmd := exec.Command(uvmbench, "-addr", addr, "-cache-dir", "servestore", "serve")
	cmd.Dir, cmd.Env, cmd.Stderr = dir, env, logFile
	if err := cmd.Start(); err != nil {
		return err
	}
	defer cmd.Process.Kill() // a no-op once Wait has returned
	client := &http.Client{Timeout: 2 * time.Minute}
	base := "http://" + addr
	ready := false
	for i := 0; i < 100 && !ready; i++ {
		if resp, err := client.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		if !ready {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if !ready {
		return fmt.Errorf("serve on %s never became ready\n%s", addr, logged())
	}
	for _, q := range requests {
		var resp *http.Response
		if q.method == "GET" {
			resp, err = client.Get(base + q.path)
		} else {
			resp, err = client.Post(base+q.path, "application/json", strings.NewReader(q.body))
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", q.method, q.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != q.status {
			return fmt.Errorf("%s %s %s: status %d, want %d", q.method, q.path, q.body, resp.StatusCode, q.status)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("serve: %v\n%s", err, logged())
	}
	return nil
}

// output runs name with args in dir, under env when it is not nil, and
// returns its standard output.
func output(dir string, env []string, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Env = dir, env
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s: %w\n%s", cmd, err, stderr.String())
	}
	return string(out), nil
}

// parseFuncs reads `go tool covdata func` output, one function a line
// ("mod/path/file.go:12:  *Type.Name  0.0%"), into "path Name" keys
// without the module prefix or a pointer receiver's '*'. A key maps to
// whether the function ran; the closing total line is skipped.
func parseFuncs(out, modPrefix string) (map[string]bool, error) {
	funcs := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "total" {
			continue
		}
		file, _, found := strings.Cut(f[0], ":")
		if len(f) != 3 || !found || !strings.HasSuffix(f[2], "%") {
			return nil, fmt.Errorf("covdata: unexpected line %q", line)
		}
		key := strings.TrimPrefix(file, modPrefix) + " " + strings.TrimPrefix(f[1], "*")
		funcs[key] = funcs[key] || f[2] != "0.0%"
	}
	if len(funcs) == 0 {
		return nil, errors.New("covdata: no functions")
	}
	return funcs, nil
}

// parseAllow reads allow.txt into its "path Name" keys. Every entry
// names a file, at least one function and a reason.
func parseAllow(text string) ([]string, error) {
	var keys []string
	for i, line := range strings.Split(text, "\n") {
		entry, reason, _ := strings.Cut(line, "#")
		f := strings.Fields(entry)
		if len(f) == 0 { // a blank or comment line
			continue
		}
		if len(f) < 2 || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: want 'path Func [Func...]  # reason', got %q", i+1, line)
		}
		for _, name := range f[1:] {
			keys = append(keys, f[0]+" "+name)
		}
	}
	return keys, nil
}

// check compares the unreached functions with the allow-list. It
// returns one report line per failure, then the counts, and whether
// the two lists agree.
func check(funcs map[string]bool, allow []string) (lines []string, ok bool) {
	var unreached, unlisted, stale []string
	for key, ran := range funcs {
		if !ran {
			unreached = append(unreached, key)
			if !slices.Contains(allow, key) {
				unlisted = append(unlisted, key)
			}
		}
	}
	for _, key := range allow {
		ran, exists := funcs[key]
		switch {
		case !exists:
			stale = append(stale, key+" (no longer exists)")
		case ran:
			stale = append(stale, key+" (now reached)")
		}
	}
	slices.Sort(unlisted)
	slices.Sort(stale)
	for _, key := range unlisted {
		lines = append(lines, "FAIL unreached, not allow-listed: "+key)
	}
	for _, key := range stale {
		lines = append(lines, "FAIL allow-listed, not unreached: "+key)
	}
	outside := 0
	for _, key := range unreached {
		if !strings.HasPrefix(key, "internal/workloads/") {
			outside++
		}
	}
	lines = append(lines, fmt.Sprintf("%d functions unreached (%d outside internal/workloads); %d unlisted, %d stale allow-list entries",
		len(unreached), outside, len(unlisted), len(stale)))
	return lines, len(unlisted) == 0 && len(stale) == 0
}
