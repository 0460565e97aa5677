package core

import (
	"fmt"

	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/workloads"
)

// This file implements the cross-profile comparison experiment: the same
// workload x setup grid measured once per hardware profile and merged
// into a single document, so one command answers "which transfer mode
// wins on which machine". Every (profile, setup) cell runs on the shared
// parallel executor; the per-profile cache keys (fingerprints) keep the
// cells from colliding in the cell cache.

// ProfileRow is one profile's mean breakdown per study setup.
type ProfileRow struct {
	Profile     string
	Fingerprint string
	Setups      []cuda.Setup     // the study's setup list, in presentation order
	Baseline    int              // position in Setups normalization uses
	BySetup     []cuda.Breakdown // Setups order
}

// Best returns the winning setup — the lowest region-of-interest time
// (total minus fixed process overhead) — and its improvement over the
// baseline setup (positive = faster than the baseline).
func (row ProfileRow) Best() (cuda.Setup, float64) {
	best, bestROI := cuda.Standard, 0.0
	for i, b := range row.BySetup {
		roi := b.Total - b.Overhead
		if i == 0 || roi < bestROI {
			best, bestROI = row.Setups[i], roi
		}
	}
	std := row.BySetup[row.Baseline].Total - row.BySetup[row.Baseline].Overhead
	if std <= 0 {
		return best, 0
	}
	return best, 1 - bestROI/std
}

// Normalized returns the setup's ROI time normalized to this profile's
// own baseline setup (each machine is its own baseline, as when papers
// compare transfer modes within a testbed).
func (row ProfileRow) Normalized(setup int) float64 {
	std := row.BySetup[row.Baseline].Total - row.BySetup[row.Baseline].Overhead
	if std <= 0 {
		return 0
	}
	b := row.BySetup[setup]
	return (b.Total - b.Overhead) / std
}

// ProfileStudy is the cross-profile comparison result.
type ProfileStudy struct {
	Workload string
	Size     workloads.Size
	Setups   []cuda.Setup // the study's setup list, in presentation order
	Baseline int          // position in Setups normalization uses
	Rows     []ProfileRow // one per requested profile, in request order
}

// CompareProfiles measures one workload at one size under every setup in
// the runner's study list on each of the given hardware profiles. Cells
// fan out across the executor and land in (profile, setup) order, so the
// merged study is deterministic at any Parallelism; the runner's own
// Config is left untouched.
func (r *Runner) CompareProfiles(ps []profile.Profile, name string, size workloads.Size) (*ProfileStudy, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: no profiles to compare")
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: profile %q: %w", p.Name, err)
		}
	}
	setups := r.setups()
	nSetups := len(setups)
	base := cuda.BaselineIndex(setups)
	grid := make([]cuda.Breakdown, len(ps)*nSetups)
	order := r.lptOrder(len(grid), func(i int) float64 {
		return cellSeconds(ps[i/nSetups].Config, setups[i%nSetups], size, r.iters())
	})
	err = r.forEachOrdered(len(grid), order, func(i int) error {
		p := ps[i/nSetups]
		setup := setups[i%nSetups]
		// The copy shares the executor and cell cache with r; its
		// fingerprinted cache keys keep this profile's cells separate.
		sub := *r
		sub.Config = p.Config
		res, err := sub.Measure(w, setup, size)
		if err != nil {
			return fmt.Errorf("core: profile %q: %w", p.Name, err)
		}
		grid[i] = res.MeanBreakdown()
		return nil
	})
	if err != nil {
		return nil, err
	}
	study := &ProfileStudy{
		Workload: name,
		Size:     size,
		Setups:   setups,
		Baseline: base,
		Rows:     make([]ProfileRow, len(ps)),
	}
	for pi, p := range ps {
		study.Rows[pi] = ProfileRow{
			Profile:     p.Name,
			Fingerprint: p.Fingerprint(),
			Setups:      setups,
			Baseline:    base,
			BySetup:     grid[pi*nSetups : (pi+1)*nSetups],
		}
	}
	return study, nil
}

// Render prints the cross-profile comparison: per-profile ROI times by
// setup, each profile's winning setup, and its gain over the baseline.
func (s *ProfileStudy) Render() string {
	out := fmt.Sprintf("Cross-profile comparison: %s (%s input), ROI ms by setup\n", s.Workload, s.Size)
	out += fmt.Sprintf("%-18s", "profile")
	for _, setup := range s.Setups {
		out += fmt.Sprintf(" %18s", setup)
	}
	out += fmt.Sprintf(" %20s\n", "best")
	for _, row := range s.Rows {
		out += fmt.Sprintf("%-18s", row.Profile)
		for _, b := range row.BySetup {
			out += fmt.Sprintf(" %18.2f", (b.Total-b.Overhead)/1e6)
		}
		best, gain := row.Best()
		out += fmt.Sprintf(" %20s\n", fmt.Sprintf("%s (%+.1f%%)", best, 100*gain))
	}
	return out
}

// Doc packages the study as the machine-readable compare-profiles
// document.
func (s *ProfileStudy) Doc() FigureDoc {
	type row struct {
		Profile         string           `json:"profile"`
		Fingerprint     string           `json:"fingerprint"`
		BySetup         []cuda.Breakdown `json:"by_setup"`
		NormalizedTotal []float64        `json:"normalized_total"`
		BestSetup       cuda.Setup       `json:"best_setup"`
		BestImprovement float64          `json:"best_improvement"`
	}
	rows := make([]row, len(s.Rows))
	for i, r := range s.Rows {
		norm := make([]float64, len(r.BySetup))
		for si := range r.BySetup {
			norm[si] = r.Normalized(si)
		}
		best, gain := r.Best()
		rows[i] = row{
			Profile:         r.Profile,
			Fingerprint:     r.Fingerprint,
			BySetup:         r.BySetup,
			NormalizedTotal: norm,
			BestSetup:       best,
			BestImprovement: gain,
		}
	}
	return FigureDoc{Figure: "compare_profiles", Data: struct {
		Workload string         `json:"workload"`
		Size     workloads.Size `json:"size"`
		Setups   []cuda.Setup   `json:"setups"`
		Rows     []row          `json:"rows"`
	}{s.Workload, s.Size, s.Setups, rows}}
}
