package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/nearest"
	"uvmasim/internal/profile"
	"uvmasim/internal/sched"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// Spec is the POST /v1/experiments request body. Every field is
// optional; the zero spec means "figure all on the default machine with
// the CLI's defaults", and each default mirrors the corresponding CLI
// flag exactly so a spec and a flag set that say the same thing produce
// the same bytes.
type Spec struct {
	// Figure names one artifact; Figures names several (run in order,
	// documents concatenated exactly like CLI `-json f1,f2`). They
	// combine; "all" expands to the CLI's all-list.
	Figure  string   `json:"figure,omitempty"`
	Figures []string `json:"figures,omitempty"`
	// Profile is a built-in machine name ("" = the server's default).
	// Unlike the CLI flag it cannot name a file: requests must not read
	// the server's filesystem.
	Profile string `json:"profile,omitempty"`
	// Profiles is the compare-profiles machine set (empty = all
	// built-ins), again built-in names only.
	Profiles []string `json:"profiles,omitempty"`
	Workload string   `json:"workload,omitempty"` // compare-profiles workload (default gemm)
	// Setups is the study's setup subset by registered name, exactly the
	// CLI -setups list (empty = the paper's five). Unknown names fail
	// with a nearest-name hint before anything simulates.
	Setups []string `json:"setups,omitempty"`
	Size   string   `json:"size,omitempty"`  // size-class override (default per figure)
	Iters  int      `json:"iters,omitempty"` // iterations per configuration (default 30)
	Seed   *int64   `json:"seed,omitempty"`  // base random seed (default 1)
	Jobs   int      `json:"jobs,omitempty"`  // fig14 batch size (default 8)
	// GPUs, Topology and Policy configure the multigpu grid, mirroring
	// the -gpus/-topology/-policy CLI flags (defaults "1,2,4",
	// "pcie-switch,nvlink", "least-loaded").
	GPUs     []int    `json:"gpus,omitempty"`
	Topology []string `json:"topology,omitempty"`
	Policy   string   `json:"policy,omitempty"`
}

// specFields lists the accepted JSON keys, for typo suggestions.
var specFields = []string{
	"figure", "figures", "profile", "profiles", "workload", "setups",
	"size", "iters", "seed", "jobs", "gpus", "topology", "policy",
}

// ParseSpec decodes and validates a request body. Unknown fields and
// unknown names fail with the CLI's nearest-suggestion diagnostics, so
// a curl typo gets the same help a shell typo does.
func ParseSpec(r io.Reader, defaultProfile profile.Profile) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		const unknown = `json: unknown field "`
		if msg := err.Error(); strings.HasPrefix(msg, unknown) {
			name := strings.TrimSuffix(strings.TrimPrefix(msg, unknown), `"`)
			return nil, fmt.Errorf("unknown spec field %q%s", name, nearest.Hint(name, specFields, 2))
		}
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bad spec: trailing data after the JSON object")
	}
	return s.resolve(defaultProfile)
}

// Request is a validated, defaulted spec, ready to run.
type Request struct {
	Figures []string // expanded, validated figure list
	Profile profile.Profile
	Iters   int
	Seed    int64
	Setups  []cuda.Setup // resolved study subset (nil = paper five)
	Opt     FigureOptions
}

// resolve applies the CLI flag defaults and validates every name
// upfront — a typo must fail in microseconds, not after a figure
// simulates.
func (s *Spec) resolve(defaultProfile profile.Profile) (*Request, error) {
	figures := make([]string, 0, len(s.Figures)+1)
	if s.Figure != "" {
		figures = append(figures, s.Figure)
	}
	figures = append(figures, s.Figures...)
	if len(figures) == 0 {
		return nil, fmt.Errorf("spec names no figures (try \"figure\": \"fig7\", or \"all\")")
	}
	expanded := make([]string, 0, len(figures))
	for _, f := range figures {
		if f == "all" {
			expanded = append(expanded, AllFigures...)
			continue
		}
		if !IsFigure(f) {
			cands := append([]string{"all"}, FigureNames...)
			return nil, fmt.Errorf("unknown figure %q%s", f, nearest.Hint(f, cands, 2))
		}
		expanded = append(expanded, f)
	}

	req := &Request{
		Figures: expanded,
		Profile: defaultProfile,
		Iters:   core.DefaultIterations,
		Seed:    1,
		Opt: FigureOptions{
			Size:     s.Size,
			Jobs:     8,
			Workload: "gemm",
		},
	}
	if s.Iters < 0 {
		return nil, fmt.Errorf("iters must be >= 0, got %d", s.Iters)
	}
	if s.Iters > 0 {
		req.Iters = s.Iters
	}
	if s.Seed != nil {
		req.Seed = *s.Seed
	}
	if s.Jobs < 0 {
		return nil, fmt.Errorf("jobs must be >= 0, got %d", s.Jobs)
	}
	if s.Jobs > 0 {
		req.Opt.Jobs = s.Jobs
	}
	if s.Workload != "" {
		if _, err := workloads.ByName(s.Workload); err != nil {
			return nil, err
		}
		req.Opt.Workload = s.Workload
	}
	if len(s.GPUs) > 0 {
		parts := make([]string, len(s.GPUs))
		for i, g := range s.GPUs {
			if g < 1 {
				return nil, fmt.Errorf("gpus entries must be positive device counts, got %d", g)
			}
			parts[i] = strconv.Itoa(g)
		}
		req.Opt.GPUs = strings.Join(parts, ",")
	}
	if len(s.Topology) > 0 {
		csv := strings.Join(s.Topology, ",")
		if _, err := topo.ParseKindList(csv); err != nil {
			return nil, err
		}
		req.Opt.Topology = csv
	}
	if s.Policy != "" {
		if _, err := sched.ParsePolicy(s.Policy); err != nil {
			return nil, err
		}
		req.Opt.Policy = s.Policy
	}
	if len(s.Setups) > 0 {
		setups, err := cuda.ParseSetupList(strings.Join(s.Setups, ","))
		if err != nil {
			return nil, err
		}
		req.Setups = setups
	}
	if s.Size != "" {
		if _, err := workloads.ParseSize(s.Size); err != nil {
			return nil, err
		}
	}
	if s.Profile != "" {
		p, err := profile.Lookup(s.Profile)
		if err != nil {
			return nil, err
		}
		req.Profile = p
	}
	if len(s.Profiles) > 0 {
		ps := make([]profile.Profile, 0, len(s.Profiles))
		for _, name := range s.Profiles {
			p, err := profile.Lookup(name)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		req.Opt.Profiles = ps
	}
	if err := CheckSize(req.Figures, req.Opt, req.Profile, req.Setups); err != nil {
		return nil, err
	}
	return req, nil
}
