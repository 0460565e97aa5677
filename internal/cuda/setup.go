// Package cuda is the simulated CUDA runtime the workloads program
// against. It exposes a fixed table of data-transfer setups — the
// paper's five configurations (standard, async, uvm, uvm_prefetch,
// uvm_prefetch_async) plus the zero-copy and SM-copy extension modes —
// a CUDA-shaped API (Malloc/MallocManaged/Free,
// MemcpyH2D/D2H, kernel launch, Synchronize) and the execution-time
// breakdown the paper's harness measures: data allocation, CPU-GPU data
// transfer, and GPU kernel time.
package cuda

import (
	"encoding/json"
	"fmt"
	"strings"

	"uvmasim/internal/nearest"
)

// Setup identifies one registered data-transfer configuration: an index
// into the setup table. The zero value is the standard setup.
type Setup int

// The setups, in table order. The first five are the paper's §3.1.3
// configurations; the last two are the zero-copy and SM-copy extension
// modes.
const (
	// Standard uses explicit cudaMalloc + cudaMemcpy, synchronous tile
	// staging. It is the table's baseline: improvement statistics are
	// computed against it whenever a study includes it.
	Standard Setup = iota
	// Async keeps explicit transfers but stages tiles with memcpy_async.
	Async
	// UVM uses cudaMallocManaged with on-demand page migration.
	UVM
	// UVMPrefetch adds cudaMemPrefetchAsync streaming to UVM.
	UVMPrefetch
	// UVMPrefetchAsync combines UVM, prefetch and memcpy_async — the
	// full three-stage pipeline of Figure 1.
	UVMPrefetchAsync
	// UVMZeroCopy accesses host-coherent managed memory in place over
	// the link: no fault migration, no device residency, no eviction
	// pressure — every access pays the link's latency/bandwidth instead
	// (the MI300A-style unified-physical-memory mode).
	UVMZeroCopy
	// UVMSMCopy stages inputs with SM-driven bulk copies into device
	// memory before computing: the transfer consumes kernel-side
	// bandwidth and SM time instead of copy-engine bandwidth (the
	// nvbandwidth SM-copy path).
	UVMSMCopy
)

// Desc describes one registered setup: its wire/CLI name, its capability
// bits, and its role in presentation (Paper marks membership in the
// paper's default five-setup presentation; Baseline marks the setup
// improvement statistics normalize against).
type Desc struct {
	Name string

	// Managed marks buffers as cudaMallocManaged allocations.
	Managed bool
	// Prefetch issues cudaMemPrefetchAsync before kernels.
	Prefetch bool
	// AsyncCopy stages tiles with memcpy_async inside kernels.
	AsyncCopy bool
	// ZeroCopy accesses host memory in place over the link (implies
	// Managed, excludes Prefetch and SMCopy).
	ZeroCopy bool
	// SMCopy stages inputs with SM-driven copies (implies Managed,
	// excludes Prefetch and ZeroCopy).
	SMCopy bool

	// Baseline designates the improvement baseline. Studies that include
	// a baseline setup normalize against it; studies that do not use
	// their first setup.
	Baseline bool
	// Paper marks the setup as part of the paper's default presentation
	// list (PaperSetups).
	Paper bool
}

// setupTable holds every setup's descriptor, indexed by Setup. Names
// are unique and list-safe (they appear in CLI lists, store keys and
// JSON), and the capability bits are coherent: zero-copy and SM-copy are
// mutually exclusive managed modes, and prefetch needs managed memory
// that migrates (TestRegisterValidation checks both).
var setupTable = [...]Desc{
	Standard:         {Name: "standard", Baseline: true, Paper: true},
	Async:            {Name: "async", AsyncCopy: true, Paper: true},
	UVM:              {Name: "uvm", Managed: true, Paper: true},
	UVMPrefetch:      {Name: "uvm_prefetch", Managed: true, Prefetch: true, Paper: true},
	UVMPrefetchAsync: {Name: "uvm_prefetch_async", Managed: true, Prefetch: true, AsyncCopy: true, Paper: true},
	UVMZeroCopy:      {Name: "uvm_zerocopy", Managed: true, ZeroCopy: true},
	UVMSMCopy:        {Name: "uvm_smcopy", Managed: true, SMCopy: true},
}

// Registered returns every setup in table order. The slice is fresh;
// callers may reorder it.
func Registered() []Setup {
	out := make([]Setup, len(setupTable))
	for i := range out {
		out[i] = Setup(i)
	}
	return out
}

// PaperSetups returns the setups of the paper's default presentation
// (the original five), in the paper's order. The slice is fresh.
func PaperSetups() []Setup {
	var out []Setup
	for i, d := range setupTable {
		if d.Paper {
			out = append(out, Setup(i))
		}
	}
	return out
}

// SetupNames returns every setup name in table order, for inventory
// listings and nearest-name hints.
func SetupNames() []string {
	out := make([]string, len(setupTable))
	for i, d := range setupTable {
		out[i] = d.Name
	}
	return out
}

// BaselineIndex returns the position, within the given study list, of
// the setup improvement statistics should normalize against: the first
// Baseline setup present, or position 0 when none is. An
// empty list returns 0.
func BaselineIndex(setups []Setup) int {
	for i, s := range setups {
		if d, ok := s.Describe(); ok && d.Baseline {
			return i
		}
	}
	return 0
}

// Describe returns the setup's table descriptor; ok is false for a
// Setup value outside the table.
func (s Setup) Describe() (Desc, bool) {
	if s < 0 || int(s) >= len(setupTable) {
		return Desc{}, false
	}
	return setupTable[s], true
}

// String returns the setup's registered name.
func (s Setup) String() string {
	if d, ok := s.Describe(); ok {
		return d.Name
	}
	return fmt.Sprintf("Setup(%d)", int(s))
}

// MarshalJSON encodes the setup as its registered name, so
// machine-readable figure output carries "uvm_prefetch" rather than a
// table ordinal.
func (s Setup) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// ParseSetup resolves a setup by its registered name, suggesting the
// nearest registered name on a miss.
func ParseSetup(name string) (Setup, error) {
	for i, d := range setupTable {
		if d.Name == name {
			return Setup(i), nil
		}
	}
	return 0, fmt.Errorf("cuda: unknown setup %q%s", name, nearest.Hint(name, SetupNames(), 3))
}

// ParseSetupList resolves a comma-separated list of registered setup
// names (the -setups flag and the serve spec's "setups" field), in
// order, rejecting unknown names, empty lists and duplicates upfront.
func ParseSetupList(list string) ([]Setup, error) {
	var out []Setup
	seen := make(map[Setup]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := ParseSetup(name)
		if err != nil {
			return nil, err
		}
		if seen[s] {
			return nil, fmt.Errorf("cuda: setup %q listed twice", name)
		}
		seen[s] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cuda: setup list names no setups")
	}
	return out, nil
}

// Managed reports whether buffers allocate through cudaMallocManaged.
func (s Setup) Managed() bool {
	d, _ := s.Describe()
	return d.Managed
}

// Prefetch reports whether cudaMemPrefetchAsync is issued before kernels.
func (s Setup) Prefetch() bool {
	d, _ := s.Describe()
	return d.Prefetch
}

// AsyncCopy reports whether kernels stage tiles with memcpy_async.
func (s Setup) AsyncCopy() bool {
	d, _ := s.Describe()
	return d.AsyncCopy
}

// ZeroCopy reports whether kernels access host-coherent memory in place
// over the link instead of migrating pages.
func (s Setup) ZeroCopy() bool {
	d, _ := s.Describe()
	return d.ZeroCopy
}

// SMCopy reports whether kernels stage inputs with SM-driven copies
// before computing.
func (s Setup) SMCopy() bool {
	d, _ := s.Describe()
	return d.SMCopy
}
