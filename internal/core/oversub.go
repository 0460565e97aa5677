package core

import (
	"fmt"

	"uvmasim/internal/cuda"
	"uvmasim/internal/gpu"
	"uvmasim/internal/kernels"
	"uvmasim/internal/workloads"
)

// Oversubscription extends the paper's study in the direction its
// related-work section points (Shao et al., "Oversubscribing GPU Unified
// Virtual Memory"): UVM lets a working set exceed device memory, at the
// cost of eviction churn once the footprint passes capacity. The
// experiment streams a vector workload whose footprint is a multiple of
// the device's managed capacity and records throughput and eviction
// traffic per oversubscription ratio.
type OversubPoint struct {
	Ratio        float64 // footprint / managed capacity
	Footprint    int64
	Total        float64 // wall total, ns
	BytesPerNs   float64 // effective processing throughput
	EvictedBytes float64
	PageFaults   float64
}

// OversubStudy is the sweep result.
type OversubStudy struct {
	Setup  cuda.Setup
	Points []OversubPoint
}

// DefaultOversubRatios is the footprint/capacity grid the uvmbench
// `oversub` subcommand sweeps. It brackets the capacity cliff densely
// (0.9–1.2 in 0.05 steps) and extends to 2x so the eviction-bound tail
// is visible; the O(1) evictor makes the dense grid cheap to run.
var DefaultOversubRatios = []float64{
	0.25, 0.5, 0.75, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4, 1.5, 1.75, 2.0,
}

// Oversubscription sweeps footprint ratios (e.g. 0.5, 0.9, 1.2, 1.5) of
// the managed capacity under the given UVM setup, running `passes`
// sequential sweeps over the data so that ratios above 1.0 must evict.
func (r *Runner) Oversubscription(setup cuda.Setup, ratios []float64, passes int) (*OversubStudy, error) {
	if !setup.Managed() {
		return nil, fmt.Errorf("core: oversubscription requires a UVM setup, got %v", setup)
	}
	if passes < 1 {
		passes = 1
	}
	study := &OversubStudy{Setup: setup, Points: make([]OversubPoint, len(ratios))}
	capacity := r.Config.ManagedCapacity()
	order := r.lptOrder(len(ratios), func(i int) float64 {
		return oversubSeconds(r.Config, ratios[i], passes)
	})
	err := r.forEachOrdered(len(ratios), order, func(i int) error {
		ratio := ratios[i]
		footprint := int64(ratio * float64(capacity))
		// Each point is one cacheable cell: %g round-trips the ratio
		// exactly, the footprint follows from ratio and the profile
		// (which keys the cache via its fingerprint), so equal kinds
		// mean equal cells across runs and machines.
		res, err := r.cached(fmt.Sprintf("oversub:%g:%d", ratio, passes), setup, workloads.Tiny,
			func() (Result, error) { return r.oversubCell(setup, footprint, passes) })
		if err != nil {
			return err
		}
		b := res.Breakdowns[0]
		roi := b.Total - b.Overhead
		study.Points[i] = OversubPoint{
			Ratio:        ratio,
			Footprint:    footprint,
			Total:        b.Total,
			BytesPerNs:   float64(footprint*int64(passes)) / roi,
			EvictedBytes: res.Counters.UVM.EvictedBytes,
			PageFaults:   res.Counters.UVM.PageFaults,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return study, nil
}

// oversubCell simulates one oversubscription point: `passes` streaming
// sweeps over a single buffer of the given footprint. The Result carries
// exactly one Breakdown (the run's) plus the final counters, which is
// all the study derives its point from.
func (r *Runner) oversubCell(setup cuda.Setup, footprint int64, passes int) (Result, error) {
	ctx := r.acquireCtx(setup, r.BaseSeed)
	defer r.releaseCtx(ctx)
	buf, err := ctx.Alloc("oversub", footprint)
	if err != nil {
		return Result{}, err
	}
	n := footprint / 4
	spec := kernels.Stream("oversub_pass", n, 1, 1, 8, 4, gpu.Sequential)
	for p := 0; p < passes; p++ {
		if err := ctx.Launch(cuda.Launch{
			Spec:   spec,
			Reads:  []*cuda.Buffer{buf},
			Writes: []*cuda.Buffer{buf},
		}); err != nil {
			return Result{}, err
		}
	}
	ctx.Synchronize()
	if err := ctx.Free(buf); err != nil {
		return Result{}, err
	}
	return Result{
		Workload:   "oversub",
		Setup:      setup,
		Size:       workloads.Tiny,
		Breakdowns: []cuda.Breakdown{ctx.Breakdown()},
		Counters:   *ctx.Counters(),
	}, nil
}

// Render prints the oversubscription sweep.
func (s *OversubStudy) Render() string {
	out := fmt.Sprintf("Oversubscription sweep (%s): throughput vs footprint/capacity\n", s.Setup)
	out += fmt.Sprintf("%-8s %12s %14s %14s %12s\n",
		"ratio", "footprint GB", "GB/s effective", "evicted GB", "faults")
	for _, p := range s.Points {
		out += fmt.Sprintf("%-8.2f %12.1f %14.2f %14.2f %12.0f\n",
			p.Ratio, float64(p.Footprint)/float64(1<<30),
			p.BytesPerNs, p.EvictedBytes/float64(1<<30), p.PageFaults)
	}
	return out
}
