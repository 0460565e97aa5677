package profile

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"reflect"
	"strings"

	"uvmasim/internal/cuda"
)

// Fingerprint returns a deterministic 16-hex-digit digest of the full
// system configuration. Two configs fingerprint equally iff they compare
// equal (==): every field is bit-identical, except that a -0 field is
// digested as 0. The digest hashes the canonical JSON encoding, whose
// field order is the struct declaration order and whose float64
// rendering is Go's shortest exact round-trip form. The experiment cell
// cache keys on this digest, so results can never leak between
// profiles, and a profile that survives a JSON save/load round trip
// keeps its fingerprint (the round trip preserves every field exactly,
// including explicit zeros).
func Fingerprint(cfg cuda.SystemConfig) string {
	positiveZeros(reflect.ValueOf(&cfg).Elem())
	b, err := json.Marshal(cfg)
	if err != nil {
		// SystemConfig is all scalar fields; Marshal cannot fail.
		panic("profile: config not marshalable: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// positiveZeros sets every -0 float field of the struct v to +0, which
// compares equal to it but encodes as "-0".
func positiveZeros(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			positiveZeros(f)
		case reflect.Float32, reflect.Float64:
			if f.Float() == 0 && f.CanSet() {
				f.SetFloat(0)
			}
		}
	}
}

// Fingerprint digests the profile's configuration (the name and
// description do not contribute: a renamed copy of a machine is the same
// machine).
func (p Profile) Fingerprint() string { return Fingerprint(p.Config) }

// Save writes the profile as indented JSON. The dump is complete —
// every config field appears explicitly, zero or not — so a dumped file
// is both a schema to edit and a loss-free snapshot: Load(Save(p))
// reproduces p exactly, fingerprint included.
func Save(w io.Writer, p Profile) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Load reads a profile from JSON and validates it. Decoding is strict:
// unknown fields are rejected (catching typos in hand-written files),
// and absent fields stay at their zero value — nothing is silently
// filled in from a default profile, so an explicit zero and an omitted
// field behave identically and a round-tripped profile never changes.
func Load(r io.Reader) (Profile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return Profile{}, fmt.Errorf("profile: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// LoadFile loads and validates a profile from a JSON file.
func LoadFile(path string) (Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, fmt.Errorf("profile: %w", err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return Profile{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Resolve turns a user-supplied -profile argument into a profile: a
// built-in name resolves through the registry, anything that looks like
// a path (a .json suffix or a path separator) loads from disk, and
// unknown names report the nearest built-in.
func Resolve(arg string) (Profile, error) {
	if p, err := Lookup(arg); err == nil {
		return p, nil
	} else if !strings.HasSuffix(arg, ".json") && !strings.ContainsAny(arg, `/\`) {
		return Profile{}, err
	}
	return LoadFile(arg)
}

// Describe renders the profile's key parameters as the text block the
// `uvmbench profiles show` subcommand prints.
func (p Profile) Describe() string {
	c := p.Config
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", p.Name, p.Description)
	fmt.Fprintf(&b, "  fingerprint    %s\n", p.Fingerprint())
	fmt.Fprintf(&b, "  gpu            %d SMs x %d cores @ %.2f GHz, %.0f GB HBM @ %.0f GB/s\n",
		c.GPU.SMs, c.GPU.CoresPerSM, c.GPU.ClockGHz,
		float64(c.GPU.HBMCapacity)/float64(1<<30), c.GPU.HBMBandwidthGBs)
	fmt.Fprintf(&b, "  l1/shared      %d KB unified, max %d KB shared, min %d KB L1 per SM\n",
		c.GPU.UnifiedCacheKB, c.GPU.MaxSharedKB, c.GPU.MinL1KB)
	fmt.Fprintf(&b, "  link           %.0f GB/s per direction, %.0f ns latency (bulk eff %.2f, fault eff %.2f)\n",
		c.PCIe.BandwidthGBs, c.PCIe.LatencyNs, c.PCIe.BulkEfficiency, c.PCIe.FaultEfficiency)
	fmt.Fprintf(&b, "  host dram      %d chips x %.0f GB\n",
		c.Host.Chips, float64(c.Host.ChipCapacity)/float64(1<<30))
	fmt.Fprintf(&b, "  uvm            %d KB fault blocks in %d MB chunks, %.0f us fault batches\n",
		c.UVM.FaultBlockBytes>>10, c.UVM.ChunkBytes>>20, c.UVM.FaultBatchLatencyNs/1e3)
	return b.String()
}
