package cuda

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// descErr reports the first rule d breaks among the setup table's
// invariants, given the other setups' descriptors: a name that is empty,
// not list-safe or already taken, or capability bits that describe a
// mode the simulator cannot execute.
func descErr(d Desc, others []Desc) error {
	switch {
	case d.Name == "":
		return fmt.Errorf("setup name must not be empty")
	case strings.ContainsAny(d.Name, " \t\n,"):
		return fmt.Errorf("setup name %q must not contain whitespace or commas", d.Name)
	case d.ZeroCopy && d.SMCopy:
		return fmt.Errorf("setup %q: zero-copy and SM-copy are mutually exclusive", d.Name)
	case (d.ZeroCopy || d.SMCopy) && !d.Managed:
		return fmt.Errorf("setup %q: zero-copy and SM-copy modes require managed memory", d.Name)
	case d.ZeroCopy && d.Prefetch:
		return fmt.Errorf("setup %q: zero-copy never migrates, prefetch does not apply", d.Name)
	case d.Prefetch && !d.Managed:
		return fmt.Errorf("setup %q: prefetch requires managed memory", d.Name)
	}
	for _, o := range others {
		if o.Name == d.Name {
			return fmt.Errorf("setup %q already registered", d.Name)
		}
	}
	return nil
}

// TestRegisterValidation pins the invariants of the fixed setup table:
// names are non-empty, list-safe and unique, and the capability bits
// describe a mode the simulator can execute. Each case is a descriptor
// the rules must reject; then every table entry must pass them.
func TestRegisterValidation(t *testing.T) {
	cases := []struct {
		name    string
		d       Desc
		wantErr string
	}{
		{"empty name", Desc{}, "must not be empty"},
		{"space in name", Desc{Name: "a b"}, "whitespace"},
		{"comma in name", Desc{Name: "a,b"}, "whitespace or commas"},
		{"newline in name", Desc{Name: "a\nb"}, "whitespace"},
		{"zerocopy+smcopy", Desc{Name: "x", Managed: true, ZeroCopy: true, SMCopy: true}, "mutually exclusive"},
		{"zerocopy unmanaged", Desc{Name: "x", ZeroCopy: true}, "require managed"},
		{"smcopy unmanaged", Desc{Name: "x", SMCopy: true}, "require managed"},
		{"zerocopy+prefetch", Desc{Name: "x", Managed: true, ZeroCopy: true, Prefetch: true}, "prefetch does not apply"},
		{"prefetch unmanaged", Desc{Name: "x", Prefetch: true}, "prefetch requires managed"},
		{"duplicate", Desc{Name: "uvm", Managed: true}, "already registered"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := descErr(c.d, setupTable[:]); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("descErr(%+v) = %v, want error containing %q", c.d, err, c.wantErr)
			}
		})
	}
	for i, d := range setupTable {
		others := slices.Delete(slices.Clone(setupTable[:]), i, i+1)
		if err := descErr(d, others); err != nil {
			t.Errorf("setup table entry %d: %v", i, err)
		}
	}
}

// TestBuiltinRegistry pins the built-in registrations: the paper's five
// in presentation order with standard as the baseline, plus the two
// extension modes with their capability bits.
func TestBuiltinRegistry(t *testing.T) {
	paper := PaperSetups()
	want := []Setup{Standard, Async, UVM, UVMPrefetch, UVMPrefetchAsync}
	if len(paper) != len(want) {
		t.Fatalf("PaperSetups() = %v, want %v", paper, want)
	}
	for i, s := range want {
		if paper[i] != s {
			t.Fatalf("PaperSetups()[%d] = %v, want %v", i, paper[i], s)
		}
	}
	if n := len(Registered()); n != 7 {
		t.Errorf("Registered() has %d setups, want 7", n)
	}
	if !UVMZeroCopy.Managed() || !UVMZeroCopy.ZeroCopy() || UVMZeroCopy.Prefetch() || UVMZeroCopy.SMCopy() {
		t.Errorf("uvm_zerocopy capability bits wrong")
	}
	if !UVMSMCopy.Managed() || !UVMSMCopy.SMCopy() || UVMSMCopy.Prefetch() || UVMSMCopy.ZeroCopy() {
		t.Errorf("uvm_smcopy capability bits wrong")
	}
	if d, ok := Standard.Describe(); !ok || !d.Baseline {
		t.Errorf("standard should be the registered baseline")
	}
	// Baseline resolution: standard wins wherever it sits; without it
	// the study's first setup is the baseline.
	if i := BaselineIndex([]Setup{UVM, Standard, UVMPrefetch}); i != 1 {
		t.Errorf("BaselineIndex with standard at 1 = %d", i)
	}
	if i := BaselineIndex([]Setup{UVMPrefetch, UVM}); i != 0 {
		t.Errorf("BaselineIndex without standard = %d", i)
	}
	if i := BaselineIndex(nil); i != 0 {
		t.Errorf("BaselineIndex(nil) = %d", i)
	}
}

// TestParseSetupHints: unknown names are rejected upfront with a
// nearest-name suggestion, both singly and in lists.
func TestParseSetupHints(t *testing.T) {
	if _, err := ParseSetup("uvm_zercopy"); err == nil ||
		!strings.Contains(err.Error(), "uvm_zerocopy") {
		t.Errorf("ParseSetup hint missing: %v", err)
	}
	if _, err := ParseSetupList("standard,uvm_smcpy"); err == nil ||
		!strings.Contains(err.Error(), "uvm_smcopy") {
		t.Errorf("ParseSetupList hint missing: %v", err)
	}
	if _, err := ParseSetupList("uvm,uvm"); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate setups should be rejected: %v", err)
	}
	if _, err := ParseSetupList(" , ,"); err == nil ||
		!strings.Contains(err.Error(), "names no setups") {
		t.Errorf("empty list should be rejected: %v", err)
	}
	got, err := ParseSetupList(" standard , uvm_zerocopy ")
	if err != nil || len(got) != 2 || got[0] != Standard || got[1] != UVMZeroCopy {
		t.Errorf("ParseSetupList = %v, %v", got, err)
	}
	// A 64 KB name is a row here rather than a FuzzParseSetupList seed:
	// as a seed it stalls the fuzzing engine's minimizer.
	t.Run("long_name", func(t *testing.T) {
		if got, err := ParseSetupList("uvm_" + strings.Repeat("x", 1<<16-len("uvm_"))); err == nil || got != nil {
			t.Errorf("64 KB name: ParseSetupList = %v, %v; want an error and a nil list", got, err)
		}
	})
}

// FuzzParseSetupList fuzzes the setup-list boundary (the -setups flag and
// the serve spec's "setups" field). ParseSetupList never panics; it
// either fails with a nil list, or returns a non-empty list of distinct
// setups whose names, joined with ",", parse back to the same list. Its
// seed corpus lives in testdata/fuzz/FuzzParseSetupList.
func FuzzParseSetupList(f *testing.F) {
	f.Add("uvm, uvm_prefetch,standard")
	f.Fuzz(func(t *testing.T, list string) {
		setups, err := ParseSetupList(list)
		if err != nil {
			if setups != nil {
				t.Fatalf("error %v with a non-nil list %v", err, setups)
			}
			return
		}
		if len(setups) == 0 {
			t.Fatal("success with an empty list")
		}
		names := make([]string, len(setups))
		for i, s := range setups {
			if slices.Contains(setups[:i], s) {
				t.Fatalf("%v lists %v twice", setups, s)
			}
			names[i] = s.String()
		}
		again, err := ParseSetupList(strings.Join(names, ","))
		if err != nil || !slices.Equal(again, setups) {
			t.Fatalf("canonical %q parses to %v, %v; want %v", strings.Join(names, ","), again, err, setups)
		}
	})
}
