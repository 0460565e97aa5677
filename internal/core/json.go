package core

import (
	"encoding/json"
	"math"

	"uvmasim/internal/cuda"
	"uvmasim/internal/stats"
	"uvmasim/internal/workloads"
)

// This file is the machine-readable face of the figure renderers: every
// study can package itself as a FigureDoc, which RenderJSON serializes
// with encoding/json. Struct fields marshal in declaration order and
// setups/sizes marshal as their paper names (see cuda.Setup.MarshalJSON),
// so the output is deterministic: byte-identical for identical study
// values, hence byte-identical at any executor Parallelism.

// FigureDoc is the envelope of one artifact: the figure's name and its
// data payload.
type FigureDoc struct {
	Figure string `json:"figure"`
	Data   any    `json:"data"`
}

// RenderJSON serializes a FigureDoc as indented JSON with a trailing
// newline, the form the -json CLI mode prints.
func RenderJSON(doc FigureDoc) (string, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// spread is a statistic that can be undefined: a dispersion (std, CI,
// CV) over fewer than two samples, or a mean saving when no workload
// has the component to save. Undefined is NaN, which encoding/json
// refuses, so it encodes as null then, and as the plain float64
// encoding otherwise.
type spread float64

func (v spread) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(v)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

// summaryJSON mirrors stats.Summary.
type summaryJSON struct {
	N        int     `json:"n"`
	MeanNs   float64 `json:"mean_ns"`
	StdNs    spread  `json:"std_ns"`
	MinNs    float64 `json:"min_ns"`
	MaxNs    float64 `json:"max_ns"`
	MedianNs float64 `json:"median_ns"`
	CI95Ns   spread  `json:"ci95_ns"`
}

func toSummaryJSON(s stats.Summary) summaryJSON {
	return summaryJSON{
		N:        s.N,
		MeanNs:   s.Mean,
		StdNs:    spread(s.Std),
		MinNs:    s.Min,
		MaxNs:    s.Max,
		MedianNs: s.Median,
		CI95Ns:   spread(s.CI95),
	}
}

// Table3Doc packages the input-size parameter table.
func Table3Doc() FigureDoc {
	type row struct {
		Class          workloads.Size `json:"class"`
		FootprintBytes int64          `json:"footprint_bytes"`
		Elems1D        int64          `json:"elems_1d"`
		Dim2D          int64          `json:"dim_2d"`
		Dim3D          int64          `json:"dim_3d"`
	}
	rows := make([]row, len(workloads.AllSizes))
	for i, s := range workloads.AllSizes {
		rows[i] = row{
			Class:          s,
			FootprintBytes: s.Footprint(),
			Elems1D:        s.Elems1D(1),
			Dim2D:          s.Dim2D(1),
			Dim3D:          s.Dim3D(1),
		}
	}
	return FigureDoc{Figure: "table3", Data: rows}
}

// Fig4Doc packages the per-cell execution-time distributions.
func (d *DistributionStudy) Fig4Doc() FigureDoc {
	type cell struct {
		Workload string         `json:"workload"`
		Setup    cuda.Setup     `json:"setup"`
		Size     workloads.Size `json:"size"`
		Summary  summaryJSON    `json:"summary"`
		CV       spread         `json:"cv"`
	}
	cells := make([]cell, len(d.Cells))
	for i, c := range d.Cells {
		cells[i] = cell{
			Workload: c.Workload,
			Setup:    c.Setup,
			Size:     c.Size,
			Summary:  toSummaryJSON(c.Summary),
			CV:       spread(c.CV),
		}
	}
	return FigureDoc{Figure: "fig4", Data: cells}
}

// Fig5Doc packages the std/mean table with the geomean row, matching
// the text renderer's workload × size grid.
func (d *DistributionStudy) Fig5Doc() FigureDoc {
	type row struct {
		Workload string   `json:"workload"`
		CVs      []spread `json:"cv_by_size"`
	}
	rows := make([]row, len(d.Workloads))
	for i, w := range d.Workloads {
		cvs := make([]spread, len(d.Sizes))
		for j, size := range d.Sizes {
			cvs[j] = spread(d.CV(w, size))
		}
		rows[i] = row{Workload: w, CVs: cvs}
	}
	geo := make([]spread, len(d.Sizes))
	for j, size := range d.Sizes {
		geo[j] = spread(d.GeoMeanCV(size))
	}
	return FigureDoc{Figure: "fig5", Data: struct {
		Sizes   []workloads.Size `json:"sizes"`
		Rows    []row            `json:"rows"`
		GeoMean []spread         `json:"geomean_by_size"`
	}{d.Sizes, rows, geo}}
}

// Doc packages the Figure 6 per-run breakdowns.
func (f *Fig6) Doc() FigureDoc {
	return FigureDoc{Figure: "fig6", Data: struct {
		Runs     []cuda.Breakdown `json:"runs"`
		MemcpyCV spread           `json:"memcpy_cv"`
		KernelCV spread           `json:"kernel_cv"`
	}{f.Runs, spread(f.MemcpyCV()), spread(f.KernelCV())}}
}

// breakdownStudyData is the payload of one BreakdownStudy (fig7 wraps
// two of them, one per input size).
type breakdownStudyData struct {
	Size   workloads.Size     `json:"size"`
	Setups []cuda.Setup       `json:"setups"`
	Rows   []breakdownRowJSON `json:"rows"`
	// Per-setup aggregates versus the study baseline, in Setups order
	// with the baseline position omitted.
	Improvements []improvementJSON `json:"vs_standard"`
}

type breakdownRowJSON struct {
	Workload string           `json:"workload"`
	BySetup  []cuda.Breakdown `json:"by_setup"`
	// NormalizedTotal is (total-overhead)/(standard total-overhead) per
	// setup, the quantity the figures plot.
	NormalizedTotal []float64 `json:"normalized_total"`
}

type improvementJSON struct {
	Setup              cuda.Setup `json:"setup"`
	GeoMeanImprovement float64    `json:"geomean_improvement"`
	MeanMemcpySavings  spread     `json:"mean_memcpy_savings"`
}

// data packages one study as a breakdownStudyData payload.
func (s *BreakdownStudy) data() breakdownStudyData {
	rows := make([]breakdownRowJSON, len(s.Rows))
	for i, row := range s.Rows {
		norm := make([]float64, len(row.BySetup))
		for si := range row.BySetup {
			_, _, _, norm[si] = row.Normalized(si)
		}
		rows[i] = breakdownRowJSON{
			Workload:        row.Workload,
			BySetup:         row.BySetup,
			NormalizedTotal: norm,
		}
	}
	imps := make([]improvementJSON, 0, len(s.Setups))
	for i, setup := range s.Setups {
		if i == s.Baseline {
			continue
		}
		imps = append(imps, improvementJSON{
			Setup:              setup,
			GeoMeanImprovement: s.GeoMeanImprovement(setup),
			MeanMemcpySavings: spread(s.ComponentSavings(setup,
				func(x cuda.Breakdown) float64 { return x.Memcpy })),
		})
	}
	return breakdownStudyData{
		Size:         s.Size,
		Setups:       s.Setups,
		Rows:         rows,
		Improvements: imps,
	}
}

// Doc packages the study under the given figure name ("fig8", "micro",
// "apps").
func (s *BreakdownStudy) Doc(figure string) FigureDoc {
	return FigureDoc{Figure: figure, Data: s.data()}
}

// Fig7Doc wraps several per-size breakdown studies into the one fig7
// document, so `-json fig7` still prints a single JSON value.
func Fig7Doc(studies []*BreakdownStudy) FigureDoc {
	data := make([]breakdownStudyData, len(studies))
	for i, s := range studies {
		data[i] = s.data()
	}
	return FigureDoc{Figure: "fig7", Data: data}
}

// Doc packages the counter study under the given figure name ("fig9" or
// "fig10"); both views carry the full counter rows.
func (s *CounterStudy) Doc(figure string) FigureDoc {
	type row struct {
		Workload      string     `json:"workload"`
		Setup         cuda.Setup `json:"setup"`
		CtrlInst      float64    `json:"ctrl_inst"`
		IntInst       float64    `json:"int_inst"`
		MemInst       float64    `json:"mem_inst"`
		FPInst        float64    `json:"fp_inst"`
		LoadMissRate  float64    `json:"load_miss_rate"`
		StoreMissRate float64    `json:"store_miss_rate"`
	}
	rows := make([]row, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = row{
			Workload:      r.Workload,
			Setup:         r.Setup,
			CtrlInst:      r.CtrlInst,
			IntInst:       r.IntInst,
			MemInst:       r.MemInst,
			FPInst:        r.FPInst,
			LoadMissRate:  r.LoadMissRate,
			StoreMissRate: r.StoreMissRate,
		}
	}
	return FigureDoc{Figure: figure, Data: struct {
		Size workloads.Size `json:"size"`
		Rows []row          `json:"rows"`
	}{s.Size, rows}}
}

// Doc packages a sensitivity sweep under the given figure name
// ("fig11".."fig13").
func (s *Sweep) Doc(figure string) FigureDoc {
	type point struct {
		Param   float64          `json:"param"`
		BySetup []cuda.Breakdown `json:"by_setup"`
		// NormalizedTotal is per-setup (total-overhead) normalized to
		// standard at the sweep's first point.
		NormalizedTotal []float64 `json:"normalized_total"`
	}
	points := make([]point, len(s.Points))
	for i, p := range s.Points {
		norm := make([]float64, len(p.BySetup))
		for si := range p.BySetup {
			norm[si] = s.NormalizedPoint(p, si)
		}
		points[i] = point{Param: p.Param, BySetup: p.BySetup, NormalizedTotal: norm}
	}
	return FigureDoc{Figure: figure, Data: struct {
		Name      string         `json:"name"`
		ParamName string         `json:"param_name"`
		Size      workloads.Size `json:"size"`
		Setups    []cuda.Setup   `json:"setups"`
		Points    []point        `json:"points"`
	}{s.Name, s.ParamName, s.Size, s.Setups, points}}
}

// Doc packages the Figure 14 pipeline-model estimate.
func (m *MultiJobResult) Doc() FigureDoc {
	return FigureDoc{Figure: "fig14", Data: struct {
		Workload         string     `json:"workload"`
		Setup            cuda.Setup `json:"setup"`
		Jobs             int        `json:"jobs"`
		AllocNs          float64    `json:"alloc_ns"`
		TransferNs       float64    `json:"transfer_ns"`
		KernelNs         float64    `json:"kernel_ns"`
		SerialTotalNs    float64    `json:"serial_total_ns"`
		PipelinedTotalNs float64    `json:"pipelined_total_ns"`
		Improvement      float64    `json:"improvement"`
		AllocShare       float64    `json:"alloc_share"`
		KernelShare      float64    `json:"kernel_share"`
		Occupancy        float64    `json:"occupancy"`
	}{m.Workload, m.Setup, m.Jobs, m.Alloc, m.Transfer, m.Kernel,
		m.SerialTotal, m.PipelinedTotal, m.Improvement,
		m.AllocShare, m.KernelShare, m.Occupancy}}
}

// Doc packages the multi-GPU contention grid next to its analytic
// reference.
func (s *MultiGPUStudy) Doc() FigureDoc {
	type schedule struct {
		MakespanNs           float64 `json:"makespan_ns"`
		ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
		Fairness             float64 `json:"fairness"`
		TransferStretch      float64 `json:"transfer_stretch"`
	}
	toSchedule := func(m MultiGPUSchedule) schedule {
		return schedule{m.Makespan, m.ThroughputJobsPerSec, m.Fairness, m.TransferStretch}
	}
	type point struct {
		Topology    string   `json:"topology"`
		GPUs        int      `json:"gpus"`
		Serial      schedule `json:"serial"`
		Pipelined   schedule `json:"pipelined"`
		Improvement float64  `json:"improvement"`
	}
	points := make([]point, len(s.Points))
	for i, p := range s.Points {
		points[i] = point{p.Topology, p.GPUs, toSchedule(p.Serial), toSchedule(p.Pipelined), p.Improvement}
	}
	return FigureDoc{Figure: "multigpu", Data: struct {
		Workload string         `json:"workload"`
		Setup    cuda.Setup     `json:"setup"`
		Size     workloads.Size `json:"size"`
		Jobs     int            `json:"jobs"`
		Policy   string         `json:"policy"`
		Analytic any            `json:"analytic"`
		Points   []point        `json:"points"`
	}{s.Workload, s.Setup, s.Size, s.Jobs, s.Policy, s.Analytic.Doc().Data, points}}
}

// Doc packages the oversubscription sweep.
func (s *OversubStudy) Doc() FigureDoc {
	type point struct {
		Ratio        float64 `json:"ratio"`
		Footprint    int64   `json:"footprint_bytes"`
		TotalNs      float64 `json:"total_ns"`
		BytesPerNs   float64 `json:"bytes_per_ns"`
		EvictedBytes float64 `json:"evicted_bytes"`
		PageFaults   float64 `json:"page_faults"`
	}
	points := make([]point, len(s.Points))
	for i, p := range s.Points {
		points[i] = point{p.Ratio, p.Footprint, p.Total, p.BytesPerNs, p.EvictedBytes, p.PageFaults}
	}
	return FigureDoc{Figure: "oversub", Data: struct {
		Setup  cuda.Setup `json:"setup"`
		Points []point    `json:"points"`
	}{s.Setup, points}}
}
