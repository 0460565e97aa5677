package profile

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// TestDefaultMatchesPaperTestbed pins the contract the goldens rely on:
// the default profile is bit-identical to the config every experiment
// used before profiles existed.
func TestDefaultMatchesPaperTestbed(t *testing.T) {
	p := Default()
	if p.Name != DefaultName {
		t.Fatalf("Default().Name = %q, want %q", p.Name, DefaultName)
	}
	if p.Config != cuda.DefaultSystemConfig() {
		t.Fatalf("Default().Config differs from cuda.DefaultSystemConfig()")
	}
	if got, want := Fingerprint(p.Config), Fingerprint(cuda.DefaultSystemConfig()); got != want {
		t.Fatalf("fingerprint mismatch: %s != %s", got, want)
	}
}

func TestBuiltinsValidate(t *testing.T) {
	ps := Builtins()
	if len(ps) != len(Names()) {
		t.Fatalf("Builtins() returned %d profiles, Names() lists %d", len(ps), len(Names()))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %s fails validation: %v", p.Name, err)
		}
	}
}

// TestRegistryImmutable checks that mutating a looked-up profile cannot
// corrupt the registry: constructors return fresh values.
func TestRegistryImmutable(t *testing.T) {
	p, err := Lookup(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	p.Config.GPU.SMs = 1
	q, _ := Lookup(DefaultName)
	if q.Config.GPU.SMs == 1 {
		t.Fatal("mutating a Lookup result changed the registry")
	}
}

func TestFingerprints(t *testing.T) {
	seen := map[string]string{}
	for _, p := range Builtins() {
		fp := p.Fingerprint()
		if len(fp) != 16 {
			t.Errorf("%s: fingerprint %q is not 16 hex digits", p.Name, fp)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("profiles %s and %s share fingerprint %s", prev, p.Name, fp)
		}
		seen[fp] = p.Name
		if p.Fingerprint() != fp {
			t.Errorf("%s: fingerprint not stable across calls", p.Name)
		}
		// The digest covers the machine, not its label.
		renamed := p
		renamed.Name, renamed.Description = "other", "other"
		if renamed.Fingerprint() != fp {
			t.Errorf("%s: renaming changed the fingerprint", p.Name)
		}
	}
}

// TestFingerprintSignedZero: -0 and +0 compare equal, so a config
// holding either is one cell-cache key; the digest encodes both as 0,
// and every other bit pattern still moves it.
func TestFingerprintSignedZero(t *testing.T) {
	pos, neg := cuda.DefaultSystemConfig(), cuda.DefaultSystemConfig()
	pos.PCIe.LatencyNs, neg.PCIe.LatencyNs = 0, math.Copysign(0, -1)
	if pos != neg {
		t.Fatal("configs differing only in the sign of a zero compare unequal")
	}
	if Fingerprint(neg) != Fingerprint(pos) {
		t.Errorf("-0 digests as %s, +0 as %s", Fingerprint(neg), Fingerprint(pos))
	}
	tiny := pos
	tiny.PCIe.LatencyNs = math.SmallestNonzeroFloat64
	if Fingerprint(tiny) == Fingerprint(pos) {
		t.Error("the smallest positive latency digests as 0")
	}
}

// numericField is one numeric leaf of the SystemConfig struct tree.
type numericField struct {
	name  string
	index []int
}

func numericFields(t reflect.Type, prefix string, base []int) []numericField {
	var out []numericField
	for i := 0; i < t.NumField(); i++ {
		ft := t.Field(i)
		idx := append(append([]int{}, base...), i)
		name := prefix + ft.Name
		switch ft.Type.Kind() {
		case reflect.Struct:
			out = append(out, numericFields(ft.Type, name+".", idx)...)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Float32, reflect.Float64:
			out = append(out, numericField{name: name, index: idx})
		}
	}
	return out
}

// TestValidateRejectsMutatedFields is the property test of the Validate
// contract: take every built-in machine, corrupt any single numeric
// field to -1 (no field of a physical machine model is negative), and
// Validate must reject the result.
func TestValidateRejectsMutatedFields(t *testing.T) {
	fields := numericFields(reflect.TypeOf(cuda.SystemConfig{}), "", nil)
	// The config spans the whole system model; if this shrinks, fields
	// were dropped from validation's reach.
	if len(fields) < 40 {
		t.Fatalf("only %d numeric fields found in SystemConfig; expected the full system model", len(fields))
	}
	for _, p := range Builtins() {
		for _, f := range fields {
			cfg := p.Config
			fv := reflect.ValueOf(&cfg).Elem().FieldByIndex(f.index)
			if fv.CanInt() {
				fv.SetInt(-1)
			} else {
				fv.SetFloat(-1)
			}
			if err := Validate(cfg); err == nil {
				t.Errorf("%s: Validate accepted %s = -1", p.Name, f.name)
			}
		}
	}
}

func TestValidateRejectsRelationalNonsense(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*cuda.SystemConfig)
	}{
		{"shared carveout over cache", func(c *cuda.SystemConfig) { c.GPU.MaxSharedKB = c.GPU.UnifiedCacheKB + 1 }},
		{"L1 floor over cache", func(c *cuda.SystemConfig) { c.GPU.MinL1KB = c.GPU.UnifiedCacheKB + 1 }},
		{"fault block over chunk", func(c *cuda.SystemConfig) { c.UVM.FaultBlockBytes = c.UVM.ChunkBytes + 1 }},
		{"ambient range inverted", func(c *cuda.SystemConfig) { c.Host.AmbientMin, c.Host.AmbientMax = 0.9, 0.1 }},
		{"efficiency above 1", func(c *cuda.SystemConfig) { c.PCIe.BulkEfficiency = 1.5 }},
		{"NaN bandwidth", func(c *cuda.SystemConfig) { c.PCIe.BandwidthGBs = nan() }},
	}
	for _, tc := range cases {
		cfg := cuda.DefaultSystemConfig()
		tc.mutate(&cfg)
		if err := Validate(cfg); err == nil {
			t.Errorf("Validate accepted config with %s", tc.name)
		}
	}
}

// TestValidateBoundsDurations: a rate or link efficiency so low, a fixed
// cost or slowdown so high, or a per-device count so high that derived
// durations overflow used to pass Validate and then panic the UVM
// evictor or print NaN tables. Validate rejects each and names the
// field; the bounds themselves are accepted.
func TestValidateBoundsDurations(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*cuda.SystemConfig)
		ok     bool
	}{
		{"pcie.BandwidthGBs", func(c *cuda.SystemConfig) { c.PCIe.BandwidthGBs = 1e-300 }, false},
		{"gpu.HBMBandwidthGBs", func(c *cuda.SystemConfig) { c.GPU.HBMBandwidthGBs = 1e-300 }, false},
		{"gpu.ClockGHz", func(c *cuda.SystemConfig) { c.GPU.ClockGHz = 1e-300 }, false},
		{"gpu.SMs", func(c *cuda.SystemConfig) { c.GPU.SMs = 1 << 62 }, false},
		{"pcie.LatencyNs", func(c *cuda.SystemConfig) { c.PCIe.LatencyNs = math.Inf(1) }, false},
		{"gpu.HBMBandwidthGBs", func(c *cuda.SystemConfig) { c.GPU.HBMBandwidthGBs = math.Inf(1) }, false},
		{"SystemOverheadNs", func(c *cuda.SystemConfig) { c.SystemOverheadNs = 1e300 }, false},
		{"KernelLaunchNs", func(c *cuda.SystemConfig) { c.KernelLaunchNs = 1e308 }, false},
		{"alloc.ManagedPerGB", func(c *cuda.SystemConfig) { c.Alloc.ManagedPerGB = 1e300 }, false},
		{"host.CrossPenalty", func(c *cuda.SystemConfig) { c.Host.CrossPenalty = 1e300 }, false},
		{"host.Chips", func(c *cuda.SystemConfig) { c.Host.Chips = 1 << 40 }, false},
		{"pcie.BulkEfficiency", func(c *cuda.SystemConfig) { c.PCIe.BulkEfficiency = 1e-300 }, false},
		{"rates at the floor", func(c *cuda.SystemConfig) {
			c.PCIe.BandwidthGBs, c.GPU.HBMBandwidthGBs, c.GPU.ClockGHz = minRate, minRate, minRate
			c.PCIe.BulkEfficiency, c.PCIe.FaultEfficiency = minEff, minEff
		}, true},
		{"costs at the ceiling", func(c *cuda.SystemConfig) {
			c.SystemOverheadNs, c.KernelLaunchNs, c.UVM.FaultBatchLatencyNs = maxNs, maxNs, maxNs
			c.Alloc.ManagedPerGB, c.Host.CrossPenalty, c.Host.CrossJitter = maxNs, maxFactor, maxFactor
		}, true},
		{"counts at the ceiling", func(c *cuda.SystemConfig) {
			c.GPU.SMs, c.GPU.WarpSize, c.Host.Chips = maxCount, maxCount, maxCount
		}, true},
		// Per-chunk UVM state is sized by size/ChunkBytes: 64-byte chunks
		// made a Mega region ask for a 4.3 GB block.
		{"uvm.ChunkBytes", func(c *cuda.SystemConfig) { c.UVM.ChunkBytes, c.UVM.FaultBlockBytes = 64, 64 }, false},
		{"uvm.ChunkBytes", func(c *cuda.SystemConfig) { c.UVM.ChunkBytes = minChunkBytes - 1 }, false},
		{"uvm.FaultBlockBytes", func(c *cuda.SystemConfig) { c.UVM.FaultBlockBytes = minFaultBlockBytes - 1 }, false},
		{"chunk sizes at the floor", func(c *cuda.SystemConfig) {
			c.UVM.ChunkBytes, c.UVM.FaultBlockBytes = minChunkBytes, minFaultBlockBytes
		}, true},
	}
	for _, tc := range cases {
		cfg := cuda.DefaultSystemConfig()
		tc.mutate(&cfg)
		err := Validate(cfg)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: Validate rejected it: %v", tc.field, err)
		case !tc.ok && err == nil:
			t.Errorf("Validate accepted a bad %s", tc.field)
		case !tc.ok && !strings.Contains(err.Error(), tc.field):
			t.Errorf("error does not name %s: %v", tc.field, err)
		}
	}
}

// TestValidateManagedCapacity: a managed capacity below one migration
// chunk could never hold the first managed chunk (the evictor has
// nothing to evict), so Validate rejects it and names the fields that
// produce it; exactly one chunk is enough.
func TestValidateManagedCapacity(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*cuda.SystemConfig)
		ok     bool
	}{
		{"1 MB device", func(c *cuda.SystemConfig) { c.GPU.HBMCapacity = 1 << 20 }, false},
		{"tiny managed fraction", func(c *cuda.SystemConfig) { c.ManagedCapacityFraction = 0.00001 }, false},
		{"one chunk", func(c *cuda.SystemConfig) {
			c.GPU.HBMCapacity = c.UVM.ChunkBytes
			c.ManagedCapacityFraction = 1
		}, true},
	}
	for _, tc := range cases {
		cfg := cuda.DefaultSystemConfig()
		tc.mutate(&cfg)
		err := Validate(cfg)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: Validate rejected a managed capacity of one chunk: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate accepted managed capacity %d below one chunk", tc.name, cfg.ManagedCapacity())
			continue
		}
		for _, field := range []string{"gpu.HBMCapacity", "ManagedCapacityFraction", "uvm.ChunkBytes"} {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%s: error does not name %s: %v", tc.name, field, err)
			}
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestRoundTrip is the dump/load regression test: Save -> Load must be
// the identity on every built-in, fingerprint included.
func TestRoundTrip(t *testing.T) {
	for _, p := range Builtins() {
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("%s: save: %v", p.Name, err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", p.Name, err)
		}
		if got != p {
			t.Errorf("%s: round trip changed the profile", p.Name)
		}
		if got.Fingerprint() != p.Fingerprint() {
			t.Errorf("%s: round trip changed the fingerprint", p.Name)
		}
	}
}

// TestRoundTripPreservesExplicitZeros guards the zero-vs-default
// semantics: a profile that sets a field to zero which the default
// profile sets non-zero (a deliberately jitter-free machine, say) must
// survive dump -> load with the zero intact — absent and zero fields are
// never silently refilled from defaults.
func TestRoundTripPreservesExplicitZeros(t *testing.T) {
	p := Default()
	p.Name = "a100-noiseless"
	p.Description = "default testbed with all jitter sources disabled"
	p.Config.OverheadJitterRel = 0
	p.Config.Host.CrossJitter = 0
	p.Config.UVM.PrefetchCallNs = 0
	if err := p.Validate(); err != nil {
		t.Fatalf("zeroed profile should be valid: %v", err)
	}
	if p.Fingerprint() == Default().Fingerprint() {
		t.Fatal("zeroing fields did not change the fingerprint")
	}

	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.OverheadJitterRel != 0 || got.Config.Host.CrossJitter != 0 || got.Config.UVM.PrefetchCallNs != 0 {
		t.Fatal("explicit zeros were replaced after a round trip")
	}
	if got != p || got.Fingerprint() != p.Fingerprint() {
		t.Fatal("round trip changed the zeroed profile")
	}
}

func TestLoadRejectsUnknownField(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, Default()); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"name"`, `"nmae"`, 1)
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("Load accepted a misspelled field")
	}
}

func TestLoadRejectsInvalidConfig(t *testing.T) {
	p := Default()
	p.Config.PCIe.BandwidthGBs = -5
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("Load accepted a negative link bandwidth")
	}
}

func TestLookupSuggestion(t *testing.T) {
	_, err := Lookup("a100-40g-pci4")
	if err == nil {
		t.Fatal("Lookup accepted a misspelled name")
	}
	if !strings.Contains(err.Error(), `did you mean "a100-40g-pcie4"?`) {
		t.Fatalf("error lacks the nearest-name hint: %v", err)
	}
}

func TestResolve(t *testing.T) {
	if _, err := Resolve("v100-16g-pcie3"); err != nil {
		t.Fatalf("Resolve(builtin): %v", err)
	}

	// A near-miss name must be reported as a name typo, not a missing
	// file.
	_, err := Resolve("v100-16g-pcie")
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("Resolve near-miss: want a name suggestion, got %v", err)
	}

	// Anything path-shaped goes to the filesystem.
	path := filepath.Join(t.TempDir(), "machine.json")
	p := Default()
	p.Name = "my-machine"
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Resolve(path)
	if err != nil {
		t.Fatalf("Resolve(file): %v", err)
	}
	if got != p {
		t.Fatal("Resolve(file) returned a different profile")
	}

	if _, err := Resolve(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Resolve accepted a missing file")
	}
}

// TestBuiltinsRunTiny runs the smallest paper workload on every built-in
// machine under every registered transfer setup: each preset must be a complete,
// runnable system model, not just a bag of plausible numbers.
func TestBuiltinsRunTiny(t *testing.T) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Builtins() {
		for _, setup := range cuda.Registered() {
			ctx := p.NewContext(setup, 1)
			if err := w.Run(ctx, workloads.Tiny); err != nil {
				t.Errorf("%s/%s: %v", p.Name, setup, err)
				continue
			}
			if b := ctx.Breakdown(); !(b.Total > 0) {
				t.Errorf("%s/%s: non-positive total %v", p.Name, setup, b.Total)
			}
		}
	}
}

// FuzzProfileLoad drives untrusted profile JSON through the whole
// boundary: Load, then Validate, then one Tiny iteration of vector_seq
// under every registered setup. Bad input must yield an error, never a
// panic, and a profile that loads must simulate non-negative breakdowns
// that stay finite when scaled by tinyHeadroom, so no larger run sums
// them to +Inf or a NaN table. The committed corpus holds profiles that
// once passed Validate and then panicked in the UVM evictor, printed
// NaN tables or summed their durations past this headroom.
func FuzzProfileLoad(f *testing.F) {
	// tinyHeadroom covers the largest run a request can ask for, with
	// orders of magnitude to spare: the Mega input is 32768× Tiny's
	// footprint, a request runs at most 100000 iterations, and figures
	// sum and compare many cells.
	const tinyHeadroom = 1e20
	var buf bytes.Buffer
	if err := Save(&buf, Default()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Load accepted a profile that Validate rejects: %v", err)
		}
		for _, setup := range cuda.Registered() {
			ctx := p.NewContext(setup, 1)
			if err := w.Run(ctx, workloads.Tiny); err != nil {
				continue
			}
			b := ctx.Breakdown()
			for _, v := range []float64{b.Alloc, b.Memcpy, b.Kernel, b.Overhead, b.Total} {
				if !(v >= 0) || math.IsInf(v*tinyHeadroom, 1) {
					t.Fatalf("%s: breakdown %+v is negative or without headroom to stay finite", setup, b)
				}
			}
		}
	})
}
