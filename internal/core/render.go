package core

import (
	"fmt"
	"math"
	"strings"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// ms formats nanoseconds as milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%9.2f", ns/1e6) }

// RenderTable3 prints the input-size parameter table.
func RenderTable3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: parameter configurations\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %8s\n", "class", "mem", "1D elems", "2D dim", "3D dim")
	for _, s := range workloads.AllSizes {
		fmt.Fprintf(&b, "%-8s %9dM %12d %9dsq %7dcu\n",
			s, s.Footprint()>>20, s.Elems1D(1), s.Dim2D(1), s.Dim3D(1))
	}
	return b.String()
}

// RenderFig4 prints the execution-time distributions per input size.
func (d *DistributionStudy) RenderFig4() string {
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
			for _, setup := range d.Setups {
				for _, c := range d.Cells {
					if c.Workload == w && c.Size == size && c.Setup == setup {
						fmt.Fprintf(&b, " %12.1f ±%7.1f", c.Summary.Mean/1e6, c.Summary.CI95/1e6)
					}
				}
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RenderFig5 prints std/mean per workload and size plus the geomean row.
func (d *DistributionStudy) RenderFig5() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: std/mean of run-to-run totals\n")
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, size := range d.Sizes {
		fmt.Fprintf(&b, " %8s", size)
	}
	fmt.Fprintln(&b)
	for _, w := range d.Workloads {
		fmt.Fprintf(&b, "%-12s", w)
		for _, size := range d.Sizes {
			fmt.Fprintf(&b, " %8.4f", d.CV(w, size))
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "geo-mean")
	for _, size := range d.Sizes {
		fmt.Fprintf(&b, " %8.4f", d.GeoMeanCV(size))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// Render prints the Figure 6 per-run breakdown table.
func (f *Fig6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: vector_seq Mega, per-run breakdown (ms)\n")
	fmt.Fprintf(&b, "%-5s %9s %9s %9s %9s\n", "run", "kernel", "alloc", "memcpy", "total")
	for i, run := range f.Runs {
		fmt.Fprintf(&b, "%-5d %s %s %s %s\n", i, ms(run.Kernel), ms(run.Alloc), ms(run.Memcpy), ms(run.Total))
	}
	fmt.Fprintf(&b, "memcpy cv=%.3f kernel cv=%.3f\n", f.MemcpyCV(), f.KernelCV())
	return b.String()
}

// Render prints a Figure 7/8 style normalized stacked-breakdown table.
func (s *BreakdownStudy) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s input): components normalized to standard total (overhead excluded)\n", title, s.Size)
	fmt.Fprintf(&b, "%-12s %-20s %8s %8s %8s %8s\n", "workload", "setup", "kernel", "memcpy", "alloc", "total")
	for _, row := range s.Rows {
		for i, setup := range s.Setups {
			k, m, a, t := row.Normalized(i)
			name := ""
			if i == 0 {
				name = row.Workload
			}
			fmt.Fprintf(&b, "%-12s %-20s %8.3f %8.3f %8.3f %8.3f\n", name, setup, k, m, a, t)
		}
	}
	fmt.Fprintf(&b, "\ngeo-mean improvement over standard:")
	for i, setup := range s.Setups {
		if i == s.Baseline {
			continue
		}
		fmt.Fprintf(&b, "  %s %+.2f%%", setup, 100*s.GeoMeanImprovement(setup))
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "mean memcpy savings over standard: ")
	for i, setup := range s.Setups {
		if i == s.Baseline {
			continue
		}
		// No baseline memcpy to save (a study without explicit copies)
		// leaves the saving undefined.
		if sav := s.ComponentSavings(setup, func(x cuda.Breakdown) float64 { return x.Memcpy }); math.IsNaN(sav) {
			fmt.Fprintf(&b, "  %s n/a", setup)
		} else {
			fmt.Fprintf(&b, "  %s %+.2f%%", setup, 100*sav)
		}
	}
	fmt.Fprintln(&b)
	return b.String()
}

// RenderFig9 prints the instruction-mix comparison.
func (s *CounterStudy) RenderFig9() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: instruction mix (%s input)\n", s.Size)
	fmt.Fprintf(&b, "%-10s %-20s %14s %14s\n", "workload", "setup", "control inst", "integer inst")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-10s %-20s %14.3e %14.3e\n", row.Workload, row.Setup, row.CtrlInst, row.IntInst)
	}
	return b.String()
}

// RenderFig10 prints the cache miss-rate comparison.
func (s *CounterStudy) RenderFig10() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: unified-L1 miss rates (%s input)\n", s.Size)
	fmt.Fprintf(&b, "%-10s %-20s %10s %10s\n", "workload", "setup", "load miss", "store miss")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-10s %-20s %10.3f %10.3f\n", row.Workload, row.Setup, row.LoadMissRate, row.StoreMissRate)
	}
	return b.String()
}

// Render prints a sensitivity sweep (Figures 11-13).
func (s *Sweep) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s input, vector_seq): totals normalized to standard@%v\n",
		title, s.Size, s.Points[0].Param)
	fmt.Fprintf(&b, "%-10s", s.ParamName)
	for _, setup := range s.Setups {
		fmt.Fprintf(&b, " %19s", setup)
	}
	fmt.Fprintln(&b)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-10v", p.Param)
		for si := range s.Setups {
			fmt.Fprintf(&b, " %19.3f", s.NormalizedPoint(p, si))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Render prints the Figure 14 / §6 multi-job pipeline estimate.
func (m *MultiJobResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14 / §6: inter-job pipeline model (%s, %s, %d jobs)\n",
		m.Workload, m.Setup, m.Jobs)
	fmt.Fprintf(&b, "per-job stages (ms): alloc %s  transfer %s  kernel %s\n",
		ms(m.Alloc), ms(m.Transfer), ms(m.Kernel))
	fmt.Fprintf(&b, "allocation share %.2f%%  kernel share %.2f%%  occupancy %.2f%%\n",
		100*m.AllocShare, 100*m.KernelShare, 100*m.Occupancy)
	fmt.Fprintf(&b, "serial batch    %s ms\n", ms(m.SerialTotal))
	fmt.Fprintf(&b, "pipelined batch %s ms\n", ms(m.PipelinedTotal))
	fmt.Fprintf(&b, "improvement     %.2f%%\n", 100*m.Improvement)
	return b.String()
}
