package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"uvmasim/internal/cuda"
	"uvmasim/internal/stats"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads"
)

// --- Table 3: input-size parameters ---------------------------------------

// SizeRow is one Table 3 row: an input-size class and its dimensions.
type SizeRow struct {
	Class          workloads.Size `json:"class"`
	FootprintBytes int64          `json:"footprint_bytes"`
	Elems1D        int64          `json:"elems_1d"`
	Dim2D          int64          `json:"dim_2d"`
	Dim3D          int64          `json:"dim_3d"`
}

// Table3 is the input-size parameter table.
type Table3 []SizeRow

// Table3Doc packages the input-size parameter table.
func Table3Doc() FigureDoc {
	rows := make(Table3, len(workloads.AllSizes))
	for i, s := range workloads.AllSizes {
		rows[i] = SizeRow{
			Class:          s,
			FootprintBytes: s.Footprint(),
			Elems1D:        s.Elems1D(1),
			Dim2D:          s.Dim2D(1),
			Dim3D:          s.Dim3D(1),
		}
	}
	return FigureDoc{Figure: "table3", Data: rows}
}

// Text prints the parameter table, footprints in MiB.
func (t Table3) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: parameter configurations\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %8s\n", "class", "mem", "1D elems", "2D dim", "3D dim")
	for _, r := range t {
		fmt.Fprintf(&b, "%-8s %9dM %12d %9dsq %7dcu\n",
			r.Class, r.FootprintBytes>>20, r.Elems1D, r.Dim2D, r.Dim3D)
	}
	return b.String()
}

// --- Figures 4 & 5: run-to-run distributions across input sizes ----------

// DistCell is one (workload, setup, size) distribution.
type DistCell struct {
	Workload string
	Setup    cuda.Setup
	Size     workloads.Size
	Summary  stats.Summary
	CV       float64 // std/mean, the Figure 5 quantity
}

// DistributionStudy holds the Figure 4/5 measurement grid. It is the
// Figure 4 table itself: its JSON encoding is the cell list, its text
// one mean±ci95 grid per size.
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

// Fig4Doc packages the per-cell execution-time distributions.
func (d *DistributionStudy) Fig4Doc() FigureDoc { return FigureDoc{Figure: "fig4", Data: d} }

// MarshalJSON encodes the study as its cell list, with the summary's
// times in nanoseconds and undefined dispersions as null.
func (d *DistributionStudy) MarshalJSON() ([]byte, error) {
	type summary struct {
		N        int     `json:"n"`
		MeanNs   float64 `json:"mean_ns"`
		StdNs    spread  `json:"std_ns"`
		MinNs    float64 `json:"min_ns"`
		MaxNs    float64 `json:"max_ns"`
		MedianNs float64 `json:"median_ns"`
		CI95Ns   spread  `json:"ci95_ns"`
	}
	type cell struct {
		Workload string         `json:"workload"`
		Setup    cuda.Setup     `json:"setup"`
		Size     workloads.Size `json:"size"`
		Summary  summary        `json:"summary"`
		CV       spread         `json:"cv"`
	}
	cells := make([]cell, len(d.Cells))
	for i, c := range d.Cells {
		s := c.Summary
		cells[i] = cell{c.Workload, c.Setup, c.Size,
			summary{s.N, s.Mean, spread(s.Std), s.Min, s.Max, s.Median, spread(s.CI95)},
			spread(c.CV)}
	}
	return json.Marshal(cells)
}

// Text prints the Figure 4 execution-time distributions per input size.
func (d *DistributionStudy) Text() string {
	var b strings.Builder
	for _, size := range d.Sizes {
		fmt.Fprintf(&b, "Figure 4 (%s): execution time, mean±ci95 ms over runs\n", size)
		fmt.Fprintf(&b, "%-12s", "workload")
		for _, s := range d.Setups {
			fmt.Fprintf(&b, " %22s", s)
		}
		fmt.Fprintln(&b)
		for _, w := range d.Workloads {
			fmt.Fprintf(&b, "%-12s", w)
			for _, c := range d.Cells {
				if c.Workload == w && c.Size == size {
					fmt.Fprintf(&b, " %12.1f ±%7.1f", c.Summary.Mean/1e6, c.Summary.CI95/1e6)
				}
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig5 is the Figure 5 table: std/mean per workload and size, with the
// geomean row.
type Fig5 struct {
	Sizes   []workloads.Size `json:"sizes"`
	Rows    []CVRow          `json:"rows"`
	GeoMean []spread         `json:"geomean_by_size"`
}

// CVRow is one workload's Figure 5 row, in Fig5.Sizes order.
type CVRow struct {
	Workload string   `json:"workload"`
	CVs      []spread `json:"cv_by_size"`
}

// Fig5Doc packages the std/mean table with the geomean row.
func (d *DistributionStudy) Fig5Doc() FigureDoc {
	f := &Fig5{Sizes: d.Sizes, Rows: make([]CVRow, len(d.Workloads)), GeoMean: make([]spread, len(d.Sizes))}
	for i, w := range d.Workloads {
		cvs := make([]spread, len(d.Sizes))
		for j, size := range d.Sizes {
			cvs[j] = spread(d.CV(w, size))
		}
		f.Rows[i] = CVRow{Workload: w, CVs: cvs}
	}
	for j, size := range d.Sizes {
		f.GeoMean[j] = spread(d.GeoMeanCV(size))
	}
	return FigureDoc{Figure: "fig5", Data: f}
}

// Text prints the std/mean grid and its geomean row.
func (f *Fig5) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: std/mean of run-to-run totals\n")
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, size := range f.Sizes {
		fmt.Fprintf(&b, " %8s", size)
	}
	fmt.Fprintln(&b)
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-12s", row.Workload)
		for _, cv := range row.CVs {
			fmt.Fprintf(&b, " %8.4f", cv)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "geo-mean")
	for _, cv := range f.GeoMean {
		fmt.Fprintf(&b, " %8.4f", cv)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// --- Figure 6: per-run breakdown instability at Mega ---------------------

// Fig6 holds the per-run breakdowns of vector_seq at the Mega input and
// the std/mean of their memcpy and kernel components.
type Fig6 struct {
	Runs     []cuda.Breakdown `json:"runs"`
	MemcpyCV spread           `json:"memcpy_cv"`
	KernelCV spread           `json:"kernel_cv"`
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
	runs := res.Breakdowns
	cv := func(component func(cuda.Breakdown) float64) spread {
		vals := make([]float64, len(runs))
		for i, b := range runs {
			vals[i] = component(b)
		}
		return spread(stats.CoefVar(vals))
	}
	return &Fig6{
		Runs:     runs,
		MemcpyCV: cv(func(b cuda.Breakdown) float64 { return b.Memcpy }),
		KernelCV: cv(func(b cuda.Breakdown) float64 { return b.Kernel }),
	}, nil
}

// Doc packages the Figure 6 per-run breakdowns.
func (f *Fig6) Doc() FigureDoc { return FigureDoc{Figure: "fig6", Data: f} }

// Text prints the per-run breakdowns in ms and the two CVs.
func (f *Fig6) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: vector_seq Mega, per-run breakdown (ms)\n")
	fmt.Fprintf(&b, "%-5s %9s %9s %9s %9s\n", "run", "kernel", "alloc", "memcpy", "total")
	for i, run := range f.Runs {
		fmt.Fprintf(&b, "%-5d %s %s %s %s\n", i, ms(run.Kernel), ms(run.Alloc), ms(run.Memcpy), ms(run.Total))
	}
	fmt.Fprintf(&b, "memcpy cv=%.3f kernel cv=%.3f\n", f.MemcpyCV, f.KernelCV)
	return b.String()
}

// --- Figures 7 & 8: multi-setup breakdown comparison ----------------------

// BreakdownRow is one workload's mean breakdown under each setup of the
// study's list (BreakdownStudy.Setups order).
type BreakdownRow struct {
	Workload string           `json:"workload"`
	BySetup  []cuda.Breakdown `json:"by_setup"`
	// NormalizedTotal is each setup's ROI time over the study
	// baseline's (the standard setup whenever the study includes it),
	// the quantity the figures plot.
	NormalizedTotal []float64 `json:"normalized_total"`
}

// BreakdownStudy is the Figure 7/8 grid at one input size.
type BreakdownStudy struct {
	Size     workloads.Size `json:"size"`
	Setups   []cuda.Setup   `json:"setups"` // the study's setup list, in presentation order
	Baseline int            `json:"-"`      // position in Setups improvement math normalizes against
	Rows     []BreakdownRow `json:"rows"`
	// VsBaseline holds each other setup's aggregates versus the
	// baseline, in Setups order.
	VsBaseline []SetupGain `json:"vs_standard"`

	title string // text table heading, set per figure by Doc
}

// SetupGain is one setup's §4.1 aggregates versus the study baseline.
type SetupGain struct {
	Setup              cuda.Setup `json:"setup"`
	GeoMeanImprovement float64    `json:"geomean_improvement"`
	MeanMemcpySavings  spread     `json:"mean_memcpy_savings"`
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
		Size:       size,
		Setups:     setups,
		Baseline:   base,
		Rows:       make([]BreakdownRow, len(ws)),
		VsBaseline: make([]SetupGain, 0, len(setups)),
	}
	for wi, w := range ws {
		bds := grid[wi*nSetups : (wi+1)*nSetups]
		study.Rows[wi] = BreakdownRow{
			Workload:        w.Name(),
			BySetup:         bds,
			NormalizedTotal: normalizedTotals(bds, bds[base]),
		}
	}
	for i, setup := range setups {
		if i != base {
			study.VsBaseline = append(study.VsBaseline, SetupGain{
				Setup:              setup,
				GeoMeanImprovement: study.GeoMeanImprovement(setup),
				MeanMemcpySavings: spread(study.ComponentSavings(setup,
					func(x cuda.Breakdown) float64 { return x.Memcpy })),
			})
		}
	}
	return study, nil
}

// GeoMeanImprovement returns the geometric-mean relative total-time
// improvement of the given setup over the study's baseline across the
// study's workloads (positive = faster), the §4.1 headline statistic.
// The fixed process overhead is excluded, as the paper's
// region-of-interest measurement does. A setup outside the study's
// list reports zero.
func (s *BreakdownStudy) GeoMeanImprovement(setup cuda.Setup) float64 {
	si := slices.Index(s.Setups, setup)
	if si < 0 {
		return 0
	}
	ratios := make([]float64, 0, len(s.Rows))
	for _, row := range s.Rows {
		std, cur := roi(row.BySetup[s.Baseline]), roi(row.BySetup[si])
		if std > 0 && cur > 0 {
			ratios = append(ratios, cur/std)
		}
	}
	return 1 - stats.GeoMean(ratios)
}

// ComponentSavings returns the mean relative reduction of one breakdown
// component (e.g. memcpy) under a setup versus the study's baseline. It
// is NaN when the baseline has none of the component on any workload
// (nothing to save), which the text table prints as n/a and the JSON
// as null.
func (s *BreakdownStudy) ComponentSavings(setup cuda.Setup, component func(cuda.Breakdown) float64) float64 {
	si := slices.Index(s.Setups, setup)
	if si < 0 {
		return 0
	}
	ratios := make([]float64, 0, len(s.Rows))
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

// titled returns a copy of the study headed by the figure's title.
func (s *BreakdownStudy) titled(figure string) *BreakdownStudy {
	c := *s
	c.title = figureTitles[figure]
	return &c
}

// Doc packages the study under the given figure name ("fig8", "micro",
// "apps").
func (s *BreakdownStudy) Doc(figure string) FigureDoc {
	return FigureDoc{Figure: figure, Data: s.titled(figure)}
}

// Text prints the normalized stacked-breakdown table and the
// per-setup aggregates versus the baseline.
func (s *BreakdownStudy) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s input): components normalized to standard total (overhead excluded)\n", s.title, s.Size)
	fmt.Fprintf(&b, "%-12s %-20s %8s %8s %8s %8s\n", "workload", "setup", "kernel", "memcpy", "alloc", "total")
	for _, row := range s.Rows {
		// The component columns share the total's denominator.
		base := roi(row.BySetup[s.Baseline])
		for i, setup := range s.Setups {
			var k, m, a float64
			if base > 0 {
				bd := row.BySetup[i]
				k, m, a = bd.Kernel/base, bd.Memcpy/base, bd.Alloc/base
			}
			name := ""
			if i == 0 {
				name = row.Workload
			}
			fmt.Fprintf(&b, "%-12s %-20s %8.3f %8.3f %8.3f %8.3f\n", name, setup, k, m, a, row.NormalizedTotal[i])
		}
	}
	fmt.Fprintf(&b, "\ngeo-mean improvement over standard:")
	for _, g := range s.VsBaseline {
		fmt.Fprintf(&b, "  %s %+.2f%%", g.Setup, 100*g.GeoMeanImprovement)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "mean memcpy savings over standard: ")
	for _, g := range s.VsBaseline {
		// No baseline memcpy to save (a study without explicit copies)
		// leaves the saving undefined.
		if math.IsNaN(float64(g.MeanMemcpySavings)) {
			fmt.Fprintf(&b, "  %s n/a", g.Setup)
		} else {
			fmt.Fprintf(&b, "  %s %+.2f%%", g.Setup, 100*g.MeanMemcpySavings)
		}
	}
	fmt.Fprintln(&b)
	return b.String()
}

// Fig7 is the Figure 7 document: one breakdown study per input size.
type Fig7 []*BreakdownStudy

// Fig7Doc wraps several per-size breakdown studies into the one fig7
// document, so `-json fig7` still prints a single JSON value.
func Fig7Doc(studies []*BreakdownStudy) FigureDoc {
	f := make(Fig7, len(studies))
	for i, s := range studies {
		f[i] = s.titled("fig7")
	}
	return FigureDoc{Figure: "fig7", Data: f}
}

// Text prints each size's study, a blank line after each.
func (f Fig7) Text() string {
	var b strings.Builder
	for _, s := range f {
		b.WriteString(s.Text())
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figures 9 & 10: instruction mix and cache miss rates ----------------

// CounterRow holds the profiled counters of one workload under one setup.
type CounterRow struct {
	Workload string     `json:"workload"`
	Setup    cuda.Setup `json:"setup"`

	CtrlInst      float64 `json:"ctrl_inst"`
	IntInst       float64 `json:"int_inst"`
	MemInst       float64 `json:"mem_inst"`
	FPInst        float64 `json:"fp_inst"`
	LoadMissRate  float64 `json:"load_miss_rate"`
	StoreMissRate float64 `json:"store_miss_rate"`
}

// CounterStudy is the Figure 9/10 data (gemm, lud, yolov3 in the paper).
// Both figures encode the full rows; the text table shows the
// instruction mix for fig9 and the miss rates for fig10.
type CounterStudy struct {
	Size workloads.Size `json:"size"`
	Rows []CounterRow   `json:"rows"`

	figure string // the figure Text prints, set by Doc
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

// Doc packages the counter study under the given figure name ("fig9" or
// "fig10").
func (s *CounterStudy) Doc(figure string) FigureDoc {
	c := *s
	c.figure = figure
	return FigureDoc{Figure: figure, Data: &c}
}

// Text prints the fig10 miss-rate table for a fig10 document and the
// fig9 instruction mix otherwise.
func (s *CounterStudy) Text() string {
	var b strings.Builder
	if s.figure == "fig10" {
		fmt.Fprintf(&b, "Figure 10: unified-L1 miss rates (%s input)\n", s.Size)
		fmt.Fprintf(&b, "%-10s %-20s %10s %10s\n", "workload", "setup", "load miss", "store miss")
		for _, row := range s.Rows {
			fmt.Fprintf(&b, "%-10s %-20s %10.3f %10.3f\n", row.Workload, row.Setup, row.LoadMissRate, row.StoreMissRate)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "Figure 9: instruction mix (%s input)\n", s.Size)
	fmt.Fprintf(&b, "%-10s %-20s %14s %14s\n", "workload", "setup", "control inst", "integer inst")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-10s %-20s %14.3e %14.3e\n", row.Workload, row.Setup, row.CtrlInst, row.IntInst)
	}
	return b.String()
}

// --- Figures 11-13: sensitivity sweeps ------------------------------------

// SweepPoint is one x-axis value of a sensitivity sweep with the mean
// breakdowns per study setup.
type SweepPoint struct {
	Param   float64          `json:"param"`
	BySetup []cuda.Breakdown `json:"by_setup"`
	// NormalizedTotal is each setup's ROI time over the baseline
	// setup's at the sweep's first point.
	NormalizedTotal []float64 `json:"normalized_total"`
}

// Sweep is a Figure 11/12/13 dataset.
type Sweep struct {
	Name      string         `json:"name"`
	ParamName string         `json:"param_name"`
	Size      workloads.Size `json:"size"`
	Setups    []cuda.Setup   `json:"setups"` // the study's setup list, in presentation order
	Baseline  int            `json:"-"`      // position in Setups normalization uses
	Points    []SweepPoint   `json:"points"`

	title string // text table heading, set per figure by Doc
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
		bds := grid[pi*nSetups : (pi+1)*nSetups]
		sw.Points[pi] = SweepPoint{
			Param:           p,
			BySetup:         bds,
			NormalizedTotal: normalizedTotals(bds, grid[sw.Baseline]),
		}
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

// Doc packages the sweep under the given figure name ("fig11".."fig13").
func (s *Sweep) Doc(figure string) FigureDoc {
	c := *s
	c.title = figureTitles[figure]
	return FigureDoc{Figure: figure, Data: &c}
}

// Text prints the normalized totals per parameter value and setup.
func (s *Sweep) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s input, vector_seq): totals normalized to standard@%v\n",
		s.title, s.Size, s.Points[0].Param)
	fmt.Fprintf(&b, "%-10s", s.ParamName)
	for _, setup := range s.Setups {
		fmt.Fprintf(&b, " %19s", setup)
	}
	fmt.Fprintln(&b)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-10v", p.Param)
		for _, v := range p.NormalizedTotal {
			fmt.Fprintf(&b, " %19.3f", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
