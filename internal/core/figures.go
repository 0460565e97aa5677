package core

import (
	"fmt"

	"uvmasim/internal/cuda"
	"uvmasim/internal/stats"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads"
)

// --- Figures 4 & 5: run-to-run distributions across input sizes ----------

// DistCell is one (workload, setup, size) distribution.
type DistCell struct {
	Workload string
	Setup    cuda.Setup
	Size     workloads.Size
	Summary  stats.Summary
	CV       float64 // std/mean, the Figure 5 quantity
}

// DistributionStudy holds the Figure 4/5 measurement grid.
type DistributionStudy struct {
	Sizes     []workloads.Size
	Workloads []string
	Setups    []cuda.Setup // the study's setup list, in presentation order
	Cells     []DistCell
}

// Distributions measures every (workload, setup, size) combination of
// the runner's setup list. The cells fan out across the executor; the
// study keeps them in the fixed workload-major, size, setup order.
func (r *Runner) Distributions(ws []workloads.Workload, sizes []workloads.Size) (*DistributionStudy, error) {
	setups := r.setups()
	study := &DistributionStudy{Sizes: sizes, Setups: setups}
	for _, w := range ws {
		study.Workloads = append(study.Workloads, w.Name())
	}
	nSetups := len(setups)
	cells := make([]DistCell, len(ws)*len(sizes)*nSetups)
	at := func(i int) (workloads.Workload, workloads.Size, cuda.Setup) {
		return ws[i/(len(sizes)*nSetups)], sizes[(i/nSetups)%len(sizes)], setups[i%nSetups]
	}
	order := r.lptOrder(len(cells), func(i int) float64 {
		_, size, setup := at(i)
		return cellSeconds(r.Config, setup, size, r.iters())
	})
	err := r.forEachOrdered(len(cells), order, func(i int) error {
		w, size, setup := at(i)
		res, err := r.Measure(w, setup, size)
		if err != nil {
			return err
		}
		totals := res.Totals()
		cells[i] = DistCell{
			Workload: w.Name(),
			Setup:    setup,
			Size:     size,
			Summary:  stats.Summarize(totals),
			CV:       stats.CoefVar(totals),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	study.Cells = cells
	return study, nil
}

// CV returns the mean coefficient of variation for a workload at a size,
// averaged across the study's setups (Figure 5 plots this).
func (d *DistributionStudy) CV(workload string, size workloads.Size) float64 {
	var cvs []float64
	for _, c := range d.Cells {
		if c.Workload == workload && c.Size == size {
			cvs = append(cvs, c.CV)
		}
	}
	return stats.Mean(cvs)
}

// GeoMeanCV returns the geometric mean of per-workload CVs at a size
// (the paper's Geo-mean bar in Figure 5).
func (d *DistributionStudy) GeoMeanCV(size workloads.Size) float64 {
	var cvs []float64
	for _, w := range d.Workloads {
		cvs = append(cvs, d.CV(w, size))
	}
	return stats.GeoMean(cvs)
}

// --- Figure 6: per-run breakdown instability at Mega ---------------------

// Fig6 holds the per-run breakdowns of vector_seq at the Mega input.
type Fig6 struct {
	Runs []cuda.Breakdown
}

// Fig6 measures vector_seq at Mega under the standard setup, exposing
// the host-DRAM chip-boundary memcpy variance (Takeaway 1).
func (r *Runner) Fig6() (*Fig6, error) {
	w, err := workloads.ByName("vector_seq")
	if err != nil {
		return nil, err
	}
	res, err := r.Measure(w, cuda.Standard, workloads.Mega)
	if err != nil {
		return nil, err
	}
	return &Fig6{Runs: res.Breakdowns}, nil
}

// MemcpyCV returns std/mean of the memcpy component across runs.
func (f *Fig6) MemcpyCV() float64 {
	vals := make([]float64, len(f.Runs))
	for i, b := range f.Runs {
		vals[i] = b.Memcpy
	}
	return stats.CoefVar(vals)
}

// KernelCV returns std/mean of the kernel component across runs.
func (f *Fig6) KernelCV() float64 {
	vals := make([]float64, len(f.Runs))
	for i, b := range f.Runs {
		vals[i] = b.Kernel
	}
	return stats.CoefVar(vals)
}

// --- Figures 7 & 8: multi-setup breakdown comparison ----------------------

// BreakdownRow is one workload's mean breakdown under each setup of the
// study's list (BreakdownStudy.Setups order). Baseline is the list
// position improvement math normalizes against.
type BreakdownRow struct {
	Workload string
	BySetup  []cuda.Breakdown
	Baseline int
}

// Normalized returns component times normalized to the baseline setup's
// total (the standard setup whenever the study includes it).
func (row BreakdownRow) Normalized(setup int) (kernel, memcpy, alloc, total float64) {
	base := row.BySetup[row.Baseline].Total - row.BySetup[row.Baseline].Overhead
	if base <= 0 {
		return 0, 0, 0, 0
	}
	b := row.BySetup[setup]
	return b.Kernel / base, b.Memcpy / base, b.Alloc / base, (b.Total - b.Overhead) / base
}

// BreakdownStudy is the Figure 7/8 grid at one input size.
type BreakdownStudy struct {
	Size     workloads.Size
	Setups   []cuda.Setup // the study's setup list, in presentation order
	Baseline int          // position in Setups improvement math normalizes against
	Rows     []BreakdownRow
}

// BreakdownComparison measures the mean breakdown of each workload at
// the given size under every setup in the runner's study list, fanning
// every (workload, setup) cell across the executor.
func (r *Runner) BreakdownComparison(ws []workloads.Workload, size workloads.Size) (*BreakdownStudy, error) {
	setups := r.setups()
	nSetups := len(setups)
	grid := make([]cuda.Breakdown, len(ws)*nSetups)
	order := r.lptOrder(len(grid), func(i int) float64 {
		return cellSeconds(r.Config, setups[i%nSetups], size, r.iters())
	})
	err := r.forEachOrdered(len(grid), order, func(i int) error {
		res, err := r.Measure(ws[i/nSetups], setups[i%nSetups], size)
		if err != nil {
			return err
		}
		grid[i] = res.MeanBreakdown()
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := cuda.BaselineIndex(setups)
	study := &BreakdownStudy{
		Size:     size,
		Setups:   setups,
		Baseline: base,
		Rows:     make([]BreakdownRow, len(ws)),
	}
	for wi, w := range ws {
		study.Rows[wi] = BreakdownRow{
			Workload: w.Name(),
			BySetup:  grid[wi*nSetups : (wi+1)*nSetups],
			Baseline: base,
		}
	}
	return study, nil
}

// setupIndex returns the study-list position of a setup, or -1.
func setupIndex(setups []cuda.Setup, setup cuda.Setup) int {
	for i, s := range setups {
		if s == setup {
			return i
		}
	}
	return -1
}

// GeoMeanImprovement returns the geometric-mean relative total-time
// improvement of the given setup over the study's baseline across the
// study's workloads (positive = faster), the §4.1 headline statistic.
// The fixed process overhead is excluded, as the paper's
// region-of-interest measurement does. A setup outside the study's
// list reports zero.
func (s *BreakdownStudy) GeoMeanImprovement(setup cuda.Setup) float64 {
	si := setupIndex(s.Setups, setup)
	if si < 0 {
		return 0
	}
	var ratios []float64
	for _, row := range s.Rows {
		std := row.BySetup[s.Baseline].Total - row.BySetup[s.Baseline].Overhead
		cur := row.BySetup[si].Total - row.BySetup[si].Overhead
		if std > 0 && cur > 0 {
			ratios = append(ratios, cur/std)
		}
	}
	return 1 - stats.GeoMean(ratios)
}

// ComponentSavings returns the mean relative reduction of one breakdown
// component (e.g. memcpy) under a setup versus the study's baseline. It
// is NaN when the baseline has none of the component on any workload
// (nothing to save), which the renderers print as n/a and null.
func (s *BreakdownStudy) ComponentSavings(setup cuda.Setup, component func(cuda.Breakdown) float64) float64 {
	si := setupIndex(s.Setups, setup)
	if si < 0 {
		return 0
	}
	var ratios []float64
	for _, row := range s.Rows {
		std := component(row.BySetup[s.Baseline])
		cur := component(row.BySetup[si])
		if std > 0 {
			ratios = append(ratios, cur/std)
		}
	}
	return 1 - stats.Mean(ratios)
}

// Row returns the row for a workload.
func (s *BreakdownStudy) Row(workload string) (BreakdownRow, error) {
	for _, row := range s.Rows {
		if row.Workload == workload {
			return row, nil
		}
	}
	return BreakdownRow{}, fmt.Errorf("core: workload %q not in study", workload)
}

// --- Figures 9 & 10: instruction mix and cache miss rates ----------------

// CounterRow holds the profiled counters of one workload under one setup.
type CounterRow struct {
	Workload string
	Setup    cuda.Setup

	CtrlInst      float64
	IntInst       float64
	MemInst       float64
	FPInst        float64
	LoadMissRate  float64
	StoreMissRate float64
}

// CounterStudy is the Figure 9/10 data (gemm, lud, yolov3 in the paper).
type CounterStudy struct {
	Size workloads.Size
	Rows []CounterRow
}

// CounterComparison profiles the named workloads under every setup.
// Counter collection needs a single run per cell (values are
// deterministic per seed), matching the paper's separate profiling pass.
func (r *Runner) CounterComparison(names []string, size workloads.Size) (*CounterStudy, error) {
	ws := make([]workloads.Workload, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	// The copy shares the executor and cell cache with r, so a repeated
	// counter study (fig9 then fig10) is fully deduplicated.
	single := *r
	single.Iterations = 1
	setups := r.setups()
	nSetups := len(setups)
	rows := make([]CounterRow, len(ws)*nSetups)
	order := single.lptOrder(len(rows), func(i int) float64 {
		return cellSeconds(single.Config, setups[i%nSetups], size, single.iters())
	})
	err := single.forEachOrdered(len(rows), order, func(i int) error {
		name := names[i/nSetups]
		setup := setups[i%nSetups]
		res, err := single.Measure(ws[i/nSetups], setup, size)
		if err != nil {
			return err
		}
		rows[i] = CounterRow{
			Workload:      name,
			Setup:         setup,
			CtrlInst:      res.Counters.Inst.Ctrl,
			IntInst:       res.Counters.Inst.Int,
			MemInst:       res.Counters.Inst.Mem,
			FPInst:        res.Counters.Inst.FP,
			LoadMissRate:  res.Counters.L1.LoadMissRate(),
			StoreMissRate: res.Counters.L1.StoreMissRate(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &CounterStudy{Size: size, Rows: rows}, nil
}

// Row returns the counters for (workload, setup).
func (s *CounterStudy) Row(workload string, setup cuda.Setup) (CounterRow, error) {
	for _, row := range s.Rows {
		if row.Workload == workload && row.Setup == setup {
			return row, nil
		}
	}
	return CounterRow{}, fmt.Errorf("core: no counter row for %s/%s", workload, setup)
}

// --- Figures 11-13: sensitivity sweeps ------------------------------------

// SweepPoint is one x-axis value of a sensitivity sweep with the mean
// breakdowns per study setup.
type SweepPoint struct {
	Param   float64
	BySetup []cuda.Breakdown
}

// Sweep is a Figure 11/12/13 dataset.
type Sweep struct {
	Name      string
	ParamName string
	Size      workloads.Size
	Setups    []cuda.Setup // the study's setup list, in presentation order
	Baseline  int          // position in Setups normalization uses
	Points    []SweepPoint
}

// sweep runs vector_seq sensitivity measurements over params, using opt
// to translate a parameter value into launch options. Every
// (param, setup) cell fans out across the executor and is memoized in
// the cell cache under a key that includes the swept parameter.
func (r *Runner) sweep(name, paramName string, size workloads.Size, params []float64,
	opt func(p float64) workloads.SensitivityOptions) (*Sweep, error) {
	setups := r.setups()
	nSetups := len(setups)
	grid := make([]cuda.Breakdown, len(params)*nSetups)
	order := r.lptOrder(len(grid), func(i int) float64 {
		return cellSeconds(r.Config, setups[i%nSetups], size, r.iters())
	})
	err := r.forEachOrdered(len(grid), order, func(i int) error {
		p := params[i/nSetups]
		setup := setups[i%nSetups]
		kind := fmt.Sprintf("sweep:%s:%g", name, p)
		res, err := r.cached(kind, setup, size, func() (Result, error) {
			return r.sweepCell(name, setup, size, p, opt(p))
		})
		if err != nil {
			return err
		}
		grid[i] = res.MeanBreakdown()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		Name:      name,
		ParamName: paramName,
		Size:      size,
		Setups:    setups,
		Baseline:  cuda.BaselineIndex(setups),
		Points:    make([]SweepPoint, len(params)),
	}
	for pi, p := range params {
		sw.Points[pi] = SweepPoint{Param: p, BySetup: grid[pi*nSetups : (pi+1)*nSetups]}
	}
	return sw, nil
}

// sweepCell measures the repeated iterations of one sensitivity cell,
// each from its own derived seed, through the same deterministic
// iteration fan-out as measureCell. Sweep results carry no counters
// (final is nil), keeping the stored artifacts identical to the
// pre-fan-out format.
func (r *Runner) sweepCell(name string, setup cuda.Setup, size workloads.Size,
	p float64, opts workloads.SensitivityOptions) (Result, error) {
	res := Result{Setup: setup, Size: size, Breakdowns: make([]cuda.Breakdown, r.iters())}
	seed := func(i int) int64 { return r.seedFor(name, setup, size, i) + int64(p*17) }
	var hook func(i int) *trace.Tracer
	if r.TraceHook != nil {
		hook = func(i int) *trace.Tracer { return r.TraceHook(name, setup, size, i) }
	}
	err := r.cellLoop(setup, seed, hook, func(ctx *cuda.Context, i int) error {
		return workloads.RunVectorSeqSensitivity(ctx, size, opts)
	}, res.Breakdowns, nil)
	return res, err
}

// SweepBlocks is Figure 11: vary the number of blocks with 256 threads.
func (r *Runner) SweepBlocks(size workloads.Size, blocks []int) (*Sweep, error) {
	params := make([]float64, len(blocks))
	for i, b := range blocks {
		params[i] = float64(b)
	}
	return r.sweep("fig11-blocks", "#blocks", size, params, func(p float64) workloads.SensitivityOptions {
		return workloads.SensitivityOptions{Blocks: int(p), ThreadsPerBlock: 256}
	})
}

// SweepThreads is Figure 12: vary threads per block with 64 blocks.
func (r *Runner) SweepThreads(size workloads.Size, threads []int) (*Sweep, error) {
	params := make([]float64, len(threads))
	for i, t := range threads {
		params[i] = float64(t)
	}
	return r.sweep("fig12-threads", "#threads", size, params, func(p float64) workloads.SensitivityOptions {
		return workloads.SensitivityOptions{Blocks: 64, ThreadsPerBlock: int(p)}
	})
}

// SweepShared is Figure 13: vary the shared-memory allocation per block.
// The grid is pinned to one block per SM so the per-block allocation maps
// one-to-one onto the SM's L1/shared partition.
func (r *Runner) SweepShared(size workloads.Size, kbs []float64) (*Sweep, error) {
	return r.sweep("fig13-shared", "sharedKB", size, kbs, func(p float64) workloads.SensitivityOptions {
		return workloads.SensitivityOptions{Blocks: 108, ThreadsPerBlock: 256, SharedPerBlockKB: p}
	})
}

// Point returns the sweep point measured at the given parameter value
// (e.g. sw.Point(128) for the 128-thread launch), so callers never index
// Points by hard-coded position.
func (s *Sweep) Point(value float64) (SweepPoint, error) {
	for _, p := range s.Points {
		if p.Param == value {
			return p, nil
		}
	}
	return SweepPoint{}, fmt.Errorf("core: sweep %s has no point at %s=%v", s.Name, s.ParamName, value)
}

// Normalized returns a point's total for a setup normalized to the
// study's baseline setup at the sweep's first point, overhead excluded.
func (s *Sweep) Normalized(pointIdx, setup int) float64 {
	return s.NormalizedPoint(s.Points[pointIdx], setup)
}

// NormalizedPoint is Normalized for a point obtained via Point (or by
// ranging over Points) rather than a positional index.
func (s *Sweep) NormalizedPoint(p SweepPoint, setup int) float64 {
	base := s.Points[0].BySetup[s.Baseline].Total - s.Points[0].BySetup[s.Baseline].Overhead
	if base <= 0 {
		return 0
	}
	b := p.BySetup[setup]
	return (b.Total - b.Overhead) / base
}
