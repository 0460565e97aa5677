package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmasim/internal/store"
)

// TestDispatchSubcommands smoke-tests every subcommand end to end with a
// single iteration (output goes to stdout; correctness of the numbers is
// covered by internal/core's tests).
func TestDispatchSubcommands(t *testing.T) {
	subs := []string{"list", "table3", "fig6", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "micro"}
	for _, sub := range subs {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			if err := run([]string{"-i", "1", sub}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing subcommand should error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"-size", "giga", "fig8"}); err == nil {
		t.Error("bad size should error")
	}
	if err := run([]string{"-i", "1", "-size", "small", "fig8"}); err != nil {
		t.Errorf("size override should work: %v", err)
	}
	// Counts below one are rejected, not clamped to one iteration or job.
	for _, args := range [][]string{
		{"-i", "0", "table3"},
		{"-i", "-3", "table3"},
		{"-jobs", "0", "table3"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
			t.Errorf("%v: err = %v, want a count error", args, err)
		}
	}
	// A repeated non-figure subcommand fails before anything runs: no
	// listing printed twice, no trace directory created.
	outDir := filepath.Join(t.TempDir(), "traces")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"list,list"}, `subcommand "list" listed twice`},
		{[]string{"profiles,table3,profiles"}, `subcommand "profiles" listed twice`},
		{[]string{"-i", "1", "-out", outDir, "trace,trace"}, `subcommand "trace" listed twice`},
	} {
		if err := run(c.args); err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	if _, err := os.Stat(outDir); !os.IsNotExist(err) {
		t.Errorf("a rejected trace run created its -out directory (stat err = %v)", err)
	}
}

func TestCommaSeparatedCommands(t *testing.T) {
	if err := run([]string{"-i", "1", "table3,list"}); err != nil {
		t.Fatal(err)
	}
}

// capture runs the CLI with stdout redirected and returns what it
// printed. The pipe is drained concurrently, so outputs larger than the
// kernel pipe buffer (full -json dumps) cannot deadlock the writer.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	type readResult struct {
		out []byte
		err error
	}
	done := make(chan readResult, 1)
	go func() {
		out, err := io.ReadAll(rp)
		rp.Close()
		done <- readResult{out, err}
	}()
	os.Stdout = wp
	runErr := run(args)
	wp.Close()
	os.Stdout = old
	res := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	return string(res.out)
}

// TestParFlag covers the executor flag end to end: -par 1 (legacy serial
// path) and a wide pool must print byte-identical artifacts, and negative
// values are rejected.
func TestParFlag(t *testing.T) {
	serial := capture(t, "-i", "2", "-par", "1", "fig6,fig9,fig12")
	parallel := capture(t, "-i", "2", "-par", "8", "fig6,fig9,fig12")
	if serial != parallel {
		t.Errorf("-par 8 output diverges from -par 1\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if err := run([]string{"-par", "-1", "table3"}); err == nil {
		t.Error("negative -par should error")
	}
}

// TestUnknownFlagSuggestion pins the deduped flag diagnostics: a typo
// produces exactly one error mentioning the nearest registered flag, and
// no flag dump from the flag package itself.
func TestUnknownFlagSuggestion(t *testing.T) {
	cases := []struct{ typo, want string }{
		{"-iters", "did you mean -i?"},
		{"-pra", "did you mean -par?"},
		{"-sede", "did you mean -seed?"},
	}
	for _, c := range cases {
		err := run([]string{c.typo, "3", "oversub"})
		if err == nil {
			t.Fatalf("%s: expected an error", c.typo)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown flag "+c.typo) || !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q should name the flag and suggest %q", c.typo, msg, c.want)
		}
		if n := strings.Count(msg, c.typo); n != 1 {
			t.Errorf("%s: flag named %d times in %q, want once", c.typo, n, msg)
		}
	}
	// A typo near nothing gets the -h pointer instead of a bad guess.
	if err := run([]string{"-zzzzzz", "list"}); err == nil ||
		!strings.Contains(err.Error(), "uvmbench -h") {
		t.Errorf("far-off typo should point at -h, got %v", err)
	}
}

// TestHelpFlag: -h prints the usage (once, to stdout) and succeeds.
func TestHelpFlag(t *testing.T) {
	out := capture(t, "-h")
	if n := strings.Count(out, "usage: uvmbench"); n != 1 {
		t.Errorf("usage printed %d times, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "subcommands:") || !strings.Contains(out, "-i int") {
		t.Errorf("usage should list subcommands and flags:\n%s", out)
	}
}

// TestCacheDirWarmRerun: a second run against the same -cache-dir
// prints byte-identical output (exercising the CLI wiring of the
// persistent store; the ≥5x wall-time claim is gated by the benchmark
// ledger, scripts/ledger).
func TestCacheDirWarmRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cellstore")
	cold := capture(t, "-i", "2", "-cache-dir", dir, "fig9,fig12,oversub")
	warm := capture(t, "-i", "2", "-cache-dir", dir, "fig9,fig12,oversub")
	if cold != warm {
		t.Error("warm -cache-dir rerun diverges from cold run")
	}
	entries, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("v%d", store.SchemaVersion)))
	if err != nil || len(entries) == 0 {
		t.Errorf("cache dir not populated (err=%v, entries=%d)", err, len(entries))
	}
}

// TestUpfrontValidation: every path-like flag and the subcommand list
// are validated before any simulation, so typos fail fast even when the
// requested run would take minutes.
func TestUpfrontValidation(t *testing.T) {
	// A huge iteration count, still within the iters ceiling, makes
	// these hang for minutes if validation happens after the run; the
	// deadline catches regressions.
	cases := map[string][]string{
		"bad cache-dir":        {"-i", "100000", "-cache-dir", "/dev/null/nope", "fig12"},
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
			} else if strings.Contains(err.Error(), "iters") {
				t.Errorf("%s: failed on the iters ceiling instead of its own fault: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: validation did not fail fast", name)
		}
	}
}
