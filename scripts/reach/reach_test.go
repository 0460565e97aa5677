package main

import (
	"strings"
	"testing"
)

func TestParseFuncs(t *testing.T) {
	out := "uvmasim/internal/cuda/context.go:148:\t\t\t*Context.SetTracer\t\t\t0.0%\n" +
		"uvmasim/internal/cuda/context.go:165:\t\t\t*Context.Counters\t\t\t100.0%\n" +
		"uvmasim/internal/core/doc.go:37:\t\t\tFigureDoc.Text\t\t\t\t66.7%\n" +
		"uvmasim/internal/kernels/kernels.go:10:\t\t\tStream\t\t\t\t\t0.0%\n" +
		"total\t\t\t\t\t\t\t(statements)\t\t\t\t71.6%\n"
	funcs, err := parseFuncs(out, "uvmasim/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"internal/cuda/context.go Context.SetTracer": false,
		"internal/cuda/context.go Context.Counters":  true,
		"internal/core/doc.go FigureDoc.Text":        true,
		"internal/kernels/kernels.go Stream":         false,
	}
	if len(funcs) != len(want) {
		t.Fatalf("parseFuncs = %v, want %v", funcs, want)
	}
	for k, v := range want {
		if ran, ok := funcs[k]; !ok || ran != v {
			t.Errorf("%s: ran %v (present %v), want %v", k, ran, ok, v)
		}
	}
	for _, bad := range []string{"", "uvmasim/a.go:1: F\n", "mode: set\n"} {
		if _, err := parseFuncs(bad, "uvmasim/"); err == nil {
			t.Errorf("parseFuncs(%q) should fail", bad)
		}
	}
}

func TestParseAllow(t *testing.T) {
	keys, err := parseAllow("# header\n\ninternal/a.go F T.M  # kept for tests\ninternal/b.go G # oracle\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, "|"); got != "internal/a.go F|internal/a.go T.M|internal/b.go G" {
		t.Errorf("parseAllow = %q", got)
	}
	for _, bad := range []string{"internal/a.go F\n", "internal/a.go # no function\n", "internal/a.go F #  \n"} {
		if _, err := parseAllow(bad); err == nil {
			t.Errorf("parseAllow(%q) should fail", bad)
		}
	}
}

// TestCheck puts each failure on its own: an unreached function the
// list misses, a listed function that ran, and one that is gone.
func TestCheck(t *testing.T) {
	funcs := map[string]bool{"a.go F": false, "a.go G": true, "internal/workloads/w.go H": false}
	allowed := []string{"a.go F", "internal/workloads/w.go H"}
	cases := []struct {
		name  string
		allow []string
		fail  string
	}{
		{"agree", allowed, ""},
		{"unlisted", allowed[:1], "FAIL unreached, not allow-listed: internal/workloads/w.go H"},
		{"reached", append([]string{"a.go G"}, allowed...), "FAIL allow-listed, not unreached: a.go G (now reached)"},
		{"gone", append([]string{"a.go Gone"}, allowed...), "FAIL allow-listed, not unreached: a.go Gone (no longer exists)"},
	}
	for _, c := range cases {
		lines, ok := check(funcs, c.allow)
		if ok != (c.fail == "") || (c.fail != "" && lines[0] != c.fail) {
			t.Errorf("%s: check = %q, %v; want first line %q", c.name, lines, ok, c.fail)
		}
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "2 functions unreached (1 outside internal/workloads)") {
			t.Errorf("%s: summary %q", c.name, last)
		}
	}
}
