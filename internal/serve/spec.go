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
	"uvmasim/internal/workloads"
)

// Spec is the POST /v1/experiments request body. Every field is
// optional; ParseSpec turns it into a Request, so an omitted field
// takes the same default the CLI flag of the same name does.
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
	Iters  int      `json:"iters,omitempty"` // iterations per configuration (0 = default 30)
	Seed   *int64   `json:"seed,omitempty"`  // base random seed (default 1)
	Jobs   int      `json:"jobs,omitempty"`  // fig14 batch size (0 = default 8)
	// GPUs, Topology and Policy configure the multigpu grid, as the
	// -gpus/-topology/-policy CLI flags do (defaults "1,2,4",
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

// ParseSpec decodes a request body into a validated Request. Unknown
// fields and unknown names fail with the CLI's nearest-suggestion
// diagnostics, so a curl typo gets the same help a shell typo does.
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
	req, err := s.request(defaultProfile)
	if err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// request translates the wire spec into a Request: machine and setup
// names resolve, lists join into the CLI's comma-separated form, and a
// zero iters or jobs keeps the default.
func (s *Spec) request(defaultProfile profile.Profile) (*Request, error) {
	req := NewRequest(defaultProfile)
	if s.Figure != "" {
		req.Figures = append(req.Figures, s.Figure)
	}
	req.Figures = append(req.Figures, s.Figures...)
	if len(req.Figures) == 0 {
		return nil, fmt.Errorf("spec names no figures (try \"figure\": \"fig7\", or \"all\")")
	}
	if s.Iters != 0 {
		req.Iters = s.Iters
	}
	if s.Seed != nil {
		req.Seed = *s.Seed
	}
	if s.Jobs != 0 {
		req.Jobs = s.Jobs
	}
	if s.Workload != "" {
		req.Workload = s.Workload
	}
	req.Size = s.Size
	if len(s.GPUs) > 0 {
		parts := make([]string, len(s.GPUs))
		for i, g := range s.GPUs {
			parts[i] = strconv.Itoa(g)
		}
		req.GPUs = strings.Join(parts, ",")
	}
	req.Topology = strings.Join(s.Topology, ",")
	req.Policy = s.Policy
	if len(s.Setups) > 0 {
		setups, err := cuda.ParseSetupList(strings.Join(s.Setups, ","))
		if err != nil {
			return nil, err
		}
		req.Setups = setups
	}
	if s.Profile != "" {
		p, err := profile.Lookup(s.Profile)
		if err != nil {
			return nil, err
		}
		req.Profile = p
	}
	for _, name := range s.Profiles {
		p, err := profile.Lookup(name)
		if err != nil {
			return nil, err
		}
		req.Profiles = append(req.Profiles, p)
	}
	return req, nil
}

// Request is one resolved run description: the figures, the machine,
// the runner settings and the figure options. The CLI flags and a POST
// /v1/experiments spec each build one and check it with Validate, so a
// run means the same thing on both paths.
type Request struct {
	// Figures lists figure names; "all" stands for AllFigures.
	Figures []string
	Profile profile.Profile
	Iters   int
	Seed    int64
	Setups  []cuda.Setup // study subset (nil = the paper's five)
	FigureOptions
}

// Ceilings on a run's counts, checked by Validate. Each is at or above
// the largest value a documented run uses (the paper repeats 30 times;
// README's multigpu example batches 16 jobs on up to 8 GPUs) and far
// below the sizes at which the harness's per-iteration, per-job and
// per-GPU slices can no longer be allocated, so an out-of-range count
// fails with an error naming it instead of panicking a worker.
const (
	MaxIters = 100000
	MaxJobs  = 16
	MaxGPUs  = 8
)

// NewRequest returns the default run on machine p, the defaults of the
// CLI flags: 30 iterations, seed 1, 8 jobs, workload gemm, each
// figure's own size, the paper's five setups and no figures yet.
func NewRequest(p profile.Profile) *Request {
	return &Request{
		Profile:       p,
		Iters:         core.DefaultIterations,
		Seed:          1,
		FigureOptions: FigureOptions{Jobs: 8, Workload: "gemm"},
	}
}

// Validate checks every name and count of the run before anything
// simulates: the figure names, iters and jobs (within their ceilings),
// the workload, the multigpu grid, every profile, and the size against
// the machines the figures run on (CheckSize).
func (q *Request) Validate() error {
	for _, f := range q.Figures {
		if f != "all" && !IsFigure(f) {
			cands := append([]string{"all"}, FigureNames...)
			return fmt.Errorf("unknown figure %q%s", f, nearest.Hint(f, cands, 2))
		}
	}
	if q.Iters < 1 {
		return fmt.Errorf("iters must be >= 1, got %d", q.Iters)
	}
	if q.Iters > MaxIters {
		return fmt.Errorf("iters must be <= %d, got %d", MaxIters, q.Iters)
	}
	if q.Jobs < 1 {
		return fmt.Errorf("jobs must be >= 1, got %d", q.Jobs)
	}
	if q.Jobs > MaxJobs {
		return fmt.Errorf("jobs must be <= %d, got %d", MaxJobs, q.Jobs)
	}
	if _, err := workloads.ByName(q.Workload); err != nil {
		return err
	}
	if _, _, _, err := ResolveMultiGPU(q.FigureOptions); err != nil {
		return err
	}
	if err := q.Profile.Validate(); err != nil {
		return err
	}
	for _, p := range q.Profiles {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return CheckSize(q)
}

// Runner derives the run's runner from base, a runner on q.Profile
// that carries the process's settings (executor width, cell store,
// metrics): a value copy sharing base's executor, cell cache and
// context pool, set to the run's iterations, seed and setups. The cell
// key includes iterations, seed and the profile fingerprint, so runs of
// any shape can share one base.
func (q *Request) Runner(base *core.Runner) *core.Runner {
	r := *base
	r.Iterations = q.Iters
	r.BaseSeed = q.Seed
	r.Setups = q.Setups
	return &r
}

// expanded returns the figure list with "all" replaced by AllFigures.
func (q *Request) expanded() []string {
	out := make([]string, 0, len(q.Figures))
	for _, f := range q.Figures {
		if f == "all" {
			out = append(out, AllFigures...)
			continue
		}
		out = append(out, f)
	}
	return out
}
