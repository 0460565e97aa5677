// Package serve turns the experiment harness into a long-running
// HTTP/JSON service with a first-class observability plane: figure
// computation over POST /v1/experiments (byte-identical to the CLI's
// -json output for the same spec), Prometheus metrics over /metrics,
// readiness over /healthz, and pprof over /debug/pprof/.
//
// The figure dispatch in this file is the single source of truth shared
// by cmd/uvmbench and the server: both call Figure, so the wire format
// cannot drift from the CLI artifact — the byte-identity acceptance
// criterion is structural, not tested-into-existence. Both also describe
// a run with one Request (spec.go), defaulted and validated in one
// place, whether it came from CLI flags or a POST body.
package serve

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/sched"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// FigureOptions carries the per-run knobs a figure consumes; a
// Request embeds them. An empty string takes the figure's default, so
// the CLI and the server agree byte for byte on what any option set
// produces.
type FigureOptions struct {
	Size     string            // size-class override ("" = the figure's default class)
	Jobs     int               // fig14/multigpu pipeline batch size
	Workload string            // compare-profiles (and trace) workload
	Profiles []profile.Profile // compare-profiles machines (nil = every built-in)
	GPUs     string            // multigpu device-count list ("" = DefaultGPUs)
	Topology string            // multigpu interconnect list ("" = DefaultTopology)
	Policy   string            // multigpu placement policy ("" = DefaultPolicy)
}

// Multi-GPU defaults, applied by ResolveMultiGPU when the corresponding
// option is empty.
const (
	DefaultGPUs     = "1,2,4"
	DefaultTopology = "pcie-switch,nvlink"
	DefaultPolicy   = "least-loaded"
)

// SizeOr returns the size override, or def when there is none.
func (o FigureOptions) SizeOr(def workloads.Size) (workloads.Size, error) {
	if o.Size == "" {
		return def, nil
	}
	return workloads.ParseSize(o.Size)
}

// FigureNames lists every subcommand Figure handles — the artifact
// surface both the CLI dispatch and POST /v1/experiments serve.
var FigureNames = []string{
	"table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "micro", "apps", "oversub",
	"multigpu", "compare-profiles",
}

// AllFigures is the expansion of the `all` pseudo-figure, in the order
// the CLI's `all` subcommand runs them.
var AllFigures = []string{
	"table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "oversub", "multigpu",
}

// IsFigure reports whether cmd is one of FigureNames.
func IsFigure(cmd string) bool { return slices.Contains(FigureNames, cmd) }

// Figure computes one figure artifact on r as its document: the CLI's
// text mode prints doc.Text(), and -json and POST /v1/experiments print
// its JSON encoding. Text is formatted only when Text is called, so a
// JSON response never formats a table.
func Figure(r *core.Runner, cmd string, opt FigureOptions) (core.FigureDoc, error) {
	switch cmd {
	case "table3":
		return core.Table3Doc(), nil

	case "fig4", "fig5":
		sizes := FeasibleSizes(r.Config)
		if len(sizes) == 0 {
			return core.FigureDoc{}, fmt.Errorf("%s: no size class fits the active profile's memory", cmd)
		}
		study, err := r.Distributions(workloads.Micro(), sizes)
		if err != nil {
			return core.FigureDoc{}, err
		}
		doc := study.Fig4Doc()
		if cmd == "fig5" {
			doc = study.Fig5Doc()
		}
		if len(sizes) < len(workloads.AllSizes) {
			doc.Note = fmt.Sprintf("note: %d of %d size classes fit this profile's memory; larger classes dropped\n",
				len(sizes), len(workloads.AllSizes))
		}
		return doc, nil

	case "fig6":
		// Figure 6 is defined at the mega class (32 GB): on machines whose
		// memory cannot host it, report the skip instead of failing.
		if !r.Config.FitsFootprint(workloads.Mega.Footprint()) {
			return core.FigureDoc{Figure: "fig6", Data: skipped{"mega footprint exceeds profile memory"},
				Note: "fig6 skipped: the mega class (32 GB) does not fit the active profile's memory\n"}, nil
		}
		f, err := r.Fig6()
		if err != nil {
			return core.FigureDoc{}, err
		}
		return f.Doc(), nil

	case "fig7":
		var studies []*core.BreakdownStudy
		for _, size := range []workloads.Size{workloads.Large, workloads.Super} {
			study, err := r.BreakdownComparison(workloads.Micro(), size)
			if err != nil {
				return core.FigureDoc{}, err
			}
			studies = append(studies, study)
		}
		return core.Fig7Doc(studies), nil

	case "fig8", "micro", "apps":
		size, err := opt.SizeOr(workloads.Super)
		if err != nil {
			return core.FigureDoc{}, err
		}
		ws := workloads.Apps()
		if cmd == "micro" {
			ws = workloads.Micro()
		}
		study, err := r.BreakdownComparison(ws, size)
		if err != nil {
			return core.FigureDoc{}, err
		}
		return study.Doc(cmd), nil

	case "fig9", "fig10":
		size, err := opt.SizeOr(workloads.Super)
		if err != nil {
			return core.FigureDoc{}, err
		}
		study, err := r.CounterComparison([]string{"gemm", "lud", "yolov3"}, size)
		if err != nil {
			return core.FigureDoc{}, err
		}
		return study.Doc(cmd), nil

	case "fig11", "fig12", "fig13":
		size, err := opt.SizeOr(workloads.Large)
		if err != nil {
			return core.FigureDoc{}, err
		}
		var sw *core.Sweep
		switch cmd {
		case "fig11":
			sw, err = r.SweepBlocks(size, []int{4096, 2048, 1024, 512, 256, 128, 64, 32, 16})
		case "fig12":
			sw, err = r.SweepThreads(size, []int{1024, 512, 256, 128, 64, 32})
		default:
			sw, err = r.SweepShared(size, []float64{2, 4, 8, 16, 32, 64, 128})
		}
		if err != nil {
			return core.FigureDoc{}, err
		}
		return sw.Doc(cmd), nil

	case "fig14":
		size, err := opt.SizeOr(workloads.Super)
		if err != nil {
			return core.FigureDoc{}, err
		}
		res, err := r.MultiJob("vector_seq", cuda.UVMPrefetchAsync, size, opt.Jobs)
		if err != nil {
			return core.FigureDoc{}, err
		}
		return res.Doc(), nil

	case "oversub":
		// Extension experiment: UVM oversubscription (see §2.1's cited
		// related work). Two passes over footprints around capacity, on a
		// grid dense around the cliff (cheap now that eviction is O(1)).
		study, err := r.Oversubscription(cuda.UVMPrefetch, core.DefaultOversubRatios, 2)
		if err != nil {
			return core.FigureDoc{}, err
		}
		return study.Doc(), nil

	case "multigpu":
		// Tentpole experiment: the Figure 14 pipeline headroom under real
		// multi-tenant contention. Same workload/setup as fig14, scheduled
		// over a (topology x GPU count) grid.
		size, err := opt.SizeOr(workloads.Super)
		if err != nil {
			return core.FigureDoc{}, err
		}
		gpus, topos, policy, err := ResolveMultiGPU(opt)
		if err != nil {
			return core.FigureDoc{}, err
		}
		study, err := r.MultiGPU("vector_seq", cuda.UVMPrefetchAsync, size, opt.Jobs, gpus, topos, policy)
		if err != nil {
			return core.FigureDoc{}, err
		}
		return study.Doc(), nil

	case "compare-profiles":
		size, err := opt.SizeOr(workloads.Large)
		if err != nil {
			return core.FigureDoc{}, err
		}
		ps := opt.Profiles
		if ps == nil {
			ps = profile.Builtins()
		}
		study, err := r.CompareProfiles(ps, opt.Workload, size)
		if err != nil {
			return core.FigureDoc{}, err
		}
		return study.Doc(), nil
	}
	return core.FigureDoc{}, fmt.Errorf("unknown figure %q", cmd)
}

// skipped is the document of a figure the active profile cannot host;
// the reason it prints is the doc's note.
type skipped struct {
	Reason string `json:"skipped"`
}

func (skipped) Text() string { return "" }

// ResolveMultiGPU normalizes the multigpu grid options: empty values
// take the package defaults, lists parse with validation and nearest
// hints, and a repeated device count or topology fails. Shared by
// Figure, Request.Validate and the CLI trace path.
func ResolveMultiGPU(opt FigureOptions) ([]int, []topo.Kind, sched.Policy, error) {
	gpusCSV := opt.GPUs
	if gpusCSV == "" {
		gpusCSV = DefaultGPUs
	}
	var gpus []int
	for _, part := range strings.Split(gpusCSV, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, nil, 0, fmt.Errorf("gpus entry %q is not a positive device count", part)
		}
		if n > MaxGPUs {
			return nil, nil, 0, fmt.Errorf("gpus entries must be <= %d, got %d", MaxGPUs, n)
		}
		if slices.Contains(gpus, n) {
			return nil, nil, 0, fmt.Errorf("gpus entry %q listed twice", part)
		}
		gpus = append(gpus, n)
	}
	if len(gpus) == 0 {
		return nil, nil, 0, fmt.Errorf("gpus names no device counts")
	}
	topoCSV := opt.Topology
	if topoCSV == "" {
		topoCSV = DefaultTopology
	}
	topos, err := topo.ParseKindList(topoCSV)
	if err != nil {
		return nil, nil, 0, err
	}
	policyName := opt.Policy
	if policyName == "" {
		policyName = DefaultPolicy
	}
	policy, err := sched.ParsePolicy(policyName)
	if err != nil {
		return nil, nil, 0, err
	}
	return gpus, topos, policy, nil
}

// CheckSize rejects, before anything simulates, a size override that
// cannot run. An explicit-copy setup (standard, async) holds the whole
// footprint in device memory, so a study whose setup list includes one
// runs out of memory on a profile that cannot host the size — the
// FitsFootprint rule fig4, fig5 and fig6 apply to their own sizes.
// Managed setups oversubscribe instead, fig14 and multigpu run one
// managed setup, and a compare-profiles workload whose allocations do
// not grow with the size (workloads.FixedFootprint) fits anyway, so
// those stay allowed. Validate applies it.
func CheckSize(q *Request) error {
	if q.Size == "" {
		return nil
	}
	size, err := workloads.ParseSize(q.Size)
	if err != nil {
		return err
	}
	setups := q.Setups
	if len(setups) == 0 {
		setups = cuda.PaperSetups()
	}
	explicit := slices.IndexFunc(setups, func(s cuda.Setup) bool { return !s.Managed() })
	if explicit < 0 {
		return nil
	}
	for _, fig := range q.Figures {
		ps := []profile.Profile{q.Profile}
		switch fig {
		case "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "micro", "apps", "all":
		case "compare-profiles":
			if w, err := workloads.ByName(q.Workload); err == nil && workloads.FixedFootprint(w) {
				continue
			}
			if ps = q.Profiles; ps == nil {
				ps = profile.Builtins()
			}
		default:
			continue
		}
		for _, p := range ps {
			if !p.Config.FitsFootprint(size.Footprint()) {
				return fmt.Errorf("%s: size %s does not fit profile %s's memory under the explicit-copy setup %s",
					fig, size, p.Name, setups[explicit])
			}
		}
	}
	return nil
}

// FeasibleSizes filters the paper's size classes to those the active
// profile's device and host memory can host under every setup. On the
// default A100-40GB profile this is all six classes.
func FeasibleSizes(cfg cuda.SystemConfig) []workloads.Size {
	var out []workloads.Size
	for _, s := range workloads.AllSizes {
		if cfg.FitsFootprint(s.Footprint()) {
			out = append(out, s)
		}
	}
	return out
}
