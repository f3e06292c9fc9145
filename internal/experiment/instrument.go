// Solver instrumentation for the experiment drivers. The drivers build
// many short-lived instances internally, so instead of threading a
// catalog through every config struct, a single package-level hook is
// consulted at each construction site — set it once before running
// (cmd/qsubsim's -metrics flag) and every solve accumulates into it.
package experiment

import (
	"qsub/internal/chanalloc"
	"qsub/internal/core"
	"qsub/internal/metrics"
)

// Metrics, when non-nil, receives solver and allocator instrumentation
// from every experiment run. Not safe to change while a run is active.
var Metrics *metrics.Catalog

// instrument attaches the package catalog's solver counters to an
// instance; a nil catalog leaves the instance untouched (zero overhead).
func instrument(inst *core.Instance) *core.Instance {
	if cat := Metrics; cat != nil {
		inst.Metrics = &core.SolverMetrics{
			HeapPops:        cat.SolverHeapPops,
			Merges:          cat.SolverMerges,
			Restarts:        cat.SolverRestarts,
			Components:      cat.SolverComponents,
			ConvergenceCost: cat.SolverConvergenceCost,
		}
	}
	return inst
}

// instrumentProblem attaches the package catalog's allocator counters.
func instrumentProblem(p *chanalloc.Problem) *chanalloc.Problem {
	if cat := Metrics; cat != nil {
		p.Metrics = &chanalloc.AllocMetrics{
			Restarts:         cat.AllocRestarts,
			GroupCacheHits:   cat.AllocGroupCacheHits,
			GroupCacheMisses: cat.AllocGroupCacheMisses,
		}
	}
	return p
}
