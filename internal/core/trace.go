package core

import (
	"fmt"

	"uvmasim/internal/cuda"
	"uvmasim/internal/trace"
	"uvmasim/internal/workloads"
)

// TraceResult pairs one traced simulated run with the breakdown it
// produced. Because a tracer only observes, Breakdown is bit-identical
// to what an untraced Measure of the same cell reports for its first
// iteration.
type TraceResult struct {
	Workload  string
	Setup     cuda.Setup
	Size      workloads.Size
	Tracer    *trace.Tracer
	Breakdown cuda.Breakdown
}

// TraceRun executes a single iteration of the named workload under
// setup at size with a fresh tracer bound and returns the recorded
// timeline. The run goes through the same machinery as Measure — same
// per-cell seed derivation, same context construction — so the timeline
// is deterministic per (config, seed) and the traced breakdown matches
// the untraced one exactly.
func (r *Runner) TraceRun(name string, setup cuda.Setup, size workloads.Size) (*TraceResult, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	tr := trace.New()
	// The copy shares the executor with r but records exactly one
	// iteration, binding the tracer to it via the hook (which also
	// bypasses the cell cache).
	single := *r
	single.Iterations = 1
	single.TraceHook = func(_ string, _ cuda.Setup, _ workloads.Size, iter int) *trace.Tracer {
		if iter == 0 {
			return tr
		}
		return nil
	}
	res, err := single.Measure(w, setup, size)
	if err != nil {
		return nil, err
	}
	if len(res.Breakdowns) == 0 {
		return nil, fmt.Errorf("core: trace run of %s/%s/%s produced no iterations", name, setup, size)
	}
	return &TraceResult{
		Workload:  name,
		Setup:     setup,
		Size:      size,
		Tracer:    tr,
		Breakdown: res.Breakdowns[0],
	}, nil
}

// TraceSetups records one timeline of the named workload per requested
// setup, returned in the given order. Each cell binds its own tracer,
// so the runs fan out across the executor like any other study and the
// result is identical at any Parallelism.
func (r *Runner) TraceSetups(name string, size workloads.Size, setups []cuda.Setup) ([]*TraceResult, error) {
	out := make([]*TraceResult, len(setups))
	err := r.forEach(len(out), func(i int) error {
		res, err := r.TraceRun(name, setups[i], size)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
