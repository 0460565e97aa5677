package topo

import (
	"math"
	"slices"
	"strings"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/sim"
)

func testConfig() cuda.SystemConfig { return profile.Default().Config }

func TestParseKind(t *testing.T) {
	for _, name := range Kinds {
		k, err := ParseKind(name)
		if err != nil || string(k) != name {
			t.Fatalf("ParseKind(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseKind("nvlnk"); err == nil || !strings.Contains(err.Error(), "nvlink") {
		t.Fatalf("typo should fail with a nearest hint, got %v", err)
	}
	ks, err := ParseKindList("pcie-switch, nvlink")
	if err != nil || len(ks) != 2 {
		t.Fatalf("ParseKindList = %v, %v", ks, err)
	}
	if _, err := ParseKindList(" , "); err == nil {
		t.Fatal("empty list should fail")
	}
	// A 64 KB name is a row here rather than a FuzzParseKindList seed:
	// as a seed it stalls the fuzzing engine's minimizer.
	t.Run("long_name", func(t *testing.T) {
		if ks, err := ParseKindList("nvlink" + strings.Repeat("x", 1<<16-len("nvlink"))); err == nil || ks != nil {
			t.Fatalf("64 KB name: ParseKindList = %v, %v; want an error and a nil list", ks, err)
		}
	})
}

// TestSwitchUplinkIsShared pins the contention shape: behind a switch,
// two GPUs' concurrent streams halve each other's bandwidth; on NVLink
// the same two streams run at full device rate because the host pool is
// far wider than two links.
func TestSwitchUplinkIsShared(t *testing.T) {
	cfg := testConfig()
	link := cfg.PCIe.BytesPerNs()
	bytes := link * 1000 // 1000 ns solo at full rate

	run := func(kind Kind) (e0, e1 float64) {
		eng := sim.New()
		tp, err := New(eng, cfg, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		tp.Transfer(bytes, 0, func(e float64) { e0 = e })
		tp.Transfer(bytes, 0, func(e float64) { e1 = e })
		eng.Run()
		return e0, e1
	}

	s0, s1 := run(PCIeSwitch)
	if math.Abs(s0-2000) > 1e-6 || math.Abs(s1-2000) > 1e-6 {
		t.Fatalf("switch: concurrent streams ended at %v, %v; want 2000 (halved bandwidth)", s0, s1)
	}
	n0, n1 := run(NVLink)
	if math.Abs(n0-1000) > 1e-6 || math.Abs(n1-1000) > 1e-6 {
		t.Fatalf("nvlink: concurrent streams ended at %v, %v; want 1000 (no contention)", n0, n1)
	}
}

// TestNVLinkHostPoolBinds pins the NVLink regime's limit: enough
// concurrent device streams exhaust the host DRAM pool even though
// every device link is private.
func TestNVLinkHostPoolBinds(t *testing.T) {
	cfg := testConfig()
	eng := sim.New()
	pool := cfg.Host.AggregateBandwidthBytesPerNs()
	link := cfg.PCIe.BytesPerNs()
	gpus := int(pool/link) + 4 // oversubscribe the pool
	tp, err := New(eng, cfg, NVLink, gpus)
	if err != nil {
		t.Fatal(err)
	}
	bytes := link * 1000
	ends := make([]float64, gpus)
	for g := 0; g < gpus; g++ {
		g := g
		tp.Transfer(bytes, 0, func(e float64) { ends[g] = e })
	}
	eng.Run()
	// All streams fair-share the pool: each gets pool/gpus < link, so
	// every stream must finish later than its solo time.
	for g, e := range ends {
		if e <= 1000 {
			t.Fatalf("gpu %d stream finished at %v despite an oversubscribed host pool", g, e)
		}
	}
	want := bytes / (pool / float64(gpus))
	if math.Abs(ends[0]-want) > 1e-6 {
		t.Fatalf("stream end = %v, want pool-limited %v", ends[0], want)
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	if _, err := New(eng, testConfig(), PCIeSwitch, 0); err == nil {
		t.Fatal("zero GPUs should fail")
	}
	if _, err := New(eng, testConfig(), Kind("mesh"), 2); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, err := New(eng, testConfig(), PCIeSwitch, 4); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseKindList fuzzes the topology-list boundary (the -topology flag
// and the serve spec's topologies). ParseKindList never panics; it either
// fails with a nil list, or returns a non-empty list of distinct kinds
// whose names, joined with ",", parse back to the same list. Its seed
// corpus lives in testdata/fuzz/FuzzParseKindList.
func FuzzParseKindList(f *testing.F) {
	f.Add("nvlink, pcie-switch")
	f.Fuzz(func(t *testing.T, list string) {
		kinds, err := ParseKindList(list)
		if err != nil {
			if kinds != nil {
				t.Fatalf("error %v with a non-nil list %v", err, kinds)
			}
			return
		}
		if len(kinds) == 0 {
			t.Fatal("success with an empty list")
		}
		names := make([]string, len(kinds))
		for i, k := range kinds {
			if slices.Contains(kinds[:i], k) {
				t.Fatalf("%v lists %v twice", kinds, k)
			}
			names[i] = string(k)
		}
		again, err := ParseKindList(strings.Join(names, ","))
		if err != nil || !slices.Equal(again, kinds) {
			t.Fatalf("canonical %q parses to %v, %v; want %v", strings.Join(names, ","), again, err, kinds)
		}
	})
}
