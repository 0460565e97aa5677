package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestParItparMatrix is the fan-out determinism property test over the
// (cell width, iteration width) matrix. Cells and their iterations fan
// out at the one -par width, so each case runs fig7 at both of its
// widths and must print text and JSON byte-identical to -par 1; the
// retired -itpar flag that once set the second width is an unknown flag.
// The matrix crosses serial, partial and over-wide widths (8 exceeds the
// 2-iteration cells, so blocks degenerate to single iterations).
func TestParItparMatrix(t *testing.T) {
	fig7 := func(t *testing.T, width int) (text, json string) {
		t.Helper()
		w := fmt.Sprint(width)
		return capture(t, "-i", "2", "-par", w, "fig7"),
			capture(t, "-i", "2", "-par", w, "-json", "fig7")
	}
	wantText, wantJSON := fig7(t, 1)
	if wantText == "" || wantJSON == "" {
		t.Fatal("reference output is empty")
	}
	for _, par := range []int{1, 2, 4} {
		for _, itpar := range []int{1, 2, 8} {
			if par == 1 && itpar == 1 {
				continue
			}
			t.Run(fmt.Sprintf("par=%d_itpar=%d", par, itpar), func(t *testing.T) {
				for _, width := range []int{par, itpar} {
					text, json := fig7(t, width)
					if text != wantText {
						t.Errorf("text output at -par %d diverges from -par 1", width)
					}
					if json != wantJSON {
						t.Errorf("JSON output at -par %d diverges from -par 1", width)
					}
				}
				err := run([]string{"-par", fmt.Sprint(par), "-itpar", fmt.Sprint(itpar), "fig7"})
				if err == nil || !strings.Contains(err.Error(), "unknown flag -itpar") {
					t.Errorf("-itpar should be an unknown flag, got %v", err)
				}
			})
		}
	}
	if err := run([]string{"-itpar", "-1", "table3"}); err == nil {
		t.Error("-itpar should error")
	}
}

// TestTraceItparIdentity: trace files are byte-identical under fan-out
// (the traced runner records one iteration per setup, so the fan-out is
// trivial there — but the width must not perturb the timeline either).
func TestTraceItparIdentity(t *testing.T) {
	trace := func(par string) []byte {
		dir := t.TempDir()
		capture(t, "-i", "1", "-workload", "gemm", "-setup", "uvm_prefetch",
			"-par", par, "-out", dir, "trace")
		return readTrace(t, dir, "gemm", "uvm_prefetch")
	}
	serial := trace("1")
	for _, par := range []string{"2", "4", "8"} {
		if !bytes.Equal(serial, trace(par)) {
			t.Errorf("trace file differs between -par 1 and -par %s", par)
		}
	}
}
