package core

import (
	"fmt"
	"strings"

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
	Profile     string           `json:"profile"`
	Fingerprint string           `json:"fingerprint"`
	BySetup     []cuda.Breakdown `json:"by_setup"` // ProfileStudy.Setups order
	// NormalizedTotal is each setup's ROI time over this profile's own
	// baseline setup's (each machine is its own baseline, as when papers
	// compare transfer modes within a testbed).
	NormalizedTotal []float64 `json:"normalized_total"`
	// BestSetup is the winning setup, the lowest ROI time, and
	// BestImprovement its gain over the baseline (positive = faster).
	BestSetup       cuda.Setup `json:"best_setup"`
	BestImprovement float64    `json:"best_improvement"`
}

// ProfileStudy is the cross-profile comparison result.
type ProfileStudy struct {
	Workload string         `json:"workload"`
	Size     workloads.Size `json:"size"`
	Setups   []cuda.Setup   `json:"setups"` // the study's setup list, in presentation order
	Baseline int            `json:"-"`      // position in Setups normalization uses
	Rows     []ProfileRow   `json:"rows"`   // one per requested profile, in request order
}

// bestSetup returns the setup with the lowest ROI time and its
// improvement over the baseline setup.
func bestSetup(setups []cuda.Setup, bds []cuda.Breakdown, baseline int) (cuda.Setup, float64) {
	best, bestROI := cuda.Standard, 0.0
	for i, b := range bds {
		if i == 0 || roi(b) < bestROI {
			best, bestROI = setups[i], roi(b)
		}
	}
	std := roi(bds[baseline])
	if std <= 0 {
		return best, 0
	}
	return best, 1 - bestROI/std
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
		bds := grid[pi*nSetups : (pi+1)*nSetups]
		best, gain := bestSetup(setups, bds, base)
		study.Rows[pi] = ProfileRow{
			Profile:         p.Name,
			Fingerprint:     p.Fingerprint(),
			BySetup:         bds,
			NormalizedTotal: normalizedTotals(bds, bds[base]),
			BestSetup:       best,
			BestImprovement: gain,
		}
	}
	return study, nil
}

// Doc packages the study as the machine-readable compare-profiles
// document.
func (s *ProfileStudy) Doc() FigureDoc { return FigureDoc{Figure: "compare_profiles", Data: s} }

// Text prints the cross-profile comparison: per-profile ROI times by
// setup, each profile's winning setup, and its gain over the baseline.
func (s *ProfileStudy) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-profile comparison: %s (%s input), ROI ms by setup\n", s.Workload, s.Size)
	fmt.Fprintf(&b, "%-18s", "profile")
	for _, setup := range s.Setups {
		fmt.Fprintf(&b, " %18s", setup)
	}
	fmt.Fprintf(&b, " %20s\n", "best")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-18s", row.Profile)
		for _, bd := range row.BySetup {
			fmt.Fprintf(&b, " %18.2f", roi(bd)/1e6)
		}
		fmt.Fprintf(&b, " %20s\n", fmt.Sprintf("%s (%+.1f%%)", row.BestSetup, 100*row.BestImprovement))
	}
	return b.String()
}
