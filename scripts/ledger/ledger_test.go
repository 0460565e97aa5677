package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		line, name string
		ns, allocs float64
		ok         bool
	}{
		// The -GOMAXPROCS suffix is dropped; a custom metric column is skipped.
		{"BenchmarkOversubscription-2   \t       1\t  30074835 ns/op\t        12.00 GiB-evicted\t 9216 B/op\t     252 allocs/op",
			"BenchmarkOversubscription", 30074835, 252, true},
		// At GOMAXPROCS=1 the name has no suffix.
		{"BenchmarkSeedFresh \t   20000\t      2582 ns/op\t       0 B/op\t       0 allocs/op",
			"BenchmarkSeedFresh", 2582, 0, true},
		{"BenchmarkManagedIteration/uvm_prefetch-16 \t 200\t 50986.5 ns/op\t 2048 chunks/op\t 0 B/op\t 0 allocs/op",
			"BenchmarkManagedIteration/uvm_prefetch", 50986.5, 0, true},
		// Without -benchmem a zero-alloc row would read as zero: not a row.
		{"BenchmarkFigureSuite-2 \t 1\t 2577245 ns/op", "", 0, 0, false},
		{"goos: linux", "", 0, 0, false},
		{"PASS", "", 0, 0, false},
		{"ok  \tuvmasim\t1.204s", "", 0, 0, false},
		{"    bench_test.go:42: 3 ns/op 1 allocs/op", "", 0, 0, false},
	}
	for _, c := range cases {
		name, ns, allocs, ok := parseBench(c.line)
		if ok != c.ok || (ok && (name != c.name || ns != c.ns || allocs != c.allocs)) {
			t.Errorf("parseBench(%q) = %q, %v, %v, %v; want %q, %v, %v, %v",
				c.line, name, ns, allocs, ok, c.name, c.ns, c.allocs, c.ok)
		}
	}
}

func benchRow(name string, ns, allocs float64) row {
	return row{Name: name, Unit: "ns/op", Value: ns, Allocs: &allocs}
}

func wallRow(name string, s float64) row {
	return row{Name: name, Unit: "s", Value: s}
}

// TestGate puts each gate on both sides of its boundary, one rule per
// case.
func TestGate(t *testing.T) {
	cases := []struct {
		name      string
		base, cur []row
		ok        bool
	}{
		{"ns/op at 3x", []row{benchRow("B", 100, 10)}, []row{benchRow("B", 300, 10)}, true},
		{"ns/op above 3x", []row{benchRow("B", 100, 10)}, []row{benchRow("B", 301, 10)}, false},
		{"allocs at 2x", []row{benchRow("B", 100, 10)}, []row{benchRow("B", 100, 20)}, true},
		{"allocs above 2x", []row{benchRow("B", 100, 10)}, []row{benchRow("B", 100, 21)}, false},
		{"zero allocs stay zero", []row{benchRow("B", 100, 0)}, []row{benchRow("B", 100, 0)}, true},
		{"zero-alloc row allocates", []row{benchRow("B", 100, 0)}, []row{benchRow("B", 100, 1)}, false},
		{"allocs column lost", []row{benchRow("B", 100, 0)}, []row{{Name: "B", Unit: "ns/op", Value: 100}}, false},
		{"wall at 2x", []row{wallRow("W", 1.5)}, []row{wallRow("W", 3)}, true},
		{"wall above 2x", []row{wallRow("W", 1.5)}, []row{wallRow("W", 3.01)}, false},
		{"missing row", []row{benchRow("A", 100, 1), benchRow("B", 100, 1)}, []row{benchRow("A", 100, 1)}, false},
		{"extra row", []row{benchRow("A", 100, 1)}, []row{benchRow("A", 100, 1), benchRow("B", 1e9, 1e9)}, true},
		{"speedup at floor",
			[]row{wallRow(wallCold, 4), wallRow(wallWarm, 0.8)},
			[]row{wallRow(wallCold, 5), wallRow(wallWarm, 1)}, true},
		{"speedup below floor",
			[]row{wallRow(wallCold, 4), wallRow(wallWarm, 0.8)},
			[]row{wallRow(wallCold, 4.9), wallRow(wallWarm, 1)}, false},
	}
	for _, c := range cases {
		lines, ok := gate(ledger{Rows: c.base}, ledger{Rows: c.cur})
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v:\n%s", c.name, ok, c.ok, strings.Join(lines, "\n"))
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{9, 1, 5, 7, 3}); m != 5 {
		t.Errorf("median of 9, 1, 5, 7, 3 = %v, want 5", m)
	}
}
