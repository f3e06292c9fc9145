// Package interval specializes query merging to one-dimensional range
// subscriptions — the σ(2≤A≤40)R queries of the paper's introduction
// (§1). In one dimension the bounding merge of a set of intervals is
// their bounding interval, and the structure of the problem is much
// tighter than in 2-D: restricted to partitions into runs that are
// contiguous in sorted order, the optimum can be computed exactly by
// dynamic programming in O(n²) instead of Bell-number search.
//
// Contiguity is not free in general — an interval nested inside a much
// larger one can make a "skipping" partition optimal (see the package
// tests for a concrete counterexample) — but for proper interval families
// (no interval contains another) the contiguous optimum empirically
// matches the unrestricted Partition optimum, and for arbitrary inputs
// the DP is a fast heuristic with a quality guarantee relative to the
// best contiguous plan.
package interval

import (
	"fmt"
	"sort"

	"qsub/internal/core"
	"qsub/internal/cost"
)

// Interval is a closed 1-D range [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Length returns Hi − Lo, or 0 for empty intervals.
func (iv Interval) Length() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether x lies in the closed interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Union returns the bounding interval of the two inputs.
func (iv Interval) Union(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	return Interval{Lo: min(iv.Lo, o.Lo), Hi: max(iv.Hi, o.Hi)}
}

// String renders the interval as "[lo, hi]".
func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// Instance builds a merging instance over the intervals with size =
// length × density and bounding-interval merging. The indices of the
// returned instance refer to the input order.
func Instance(model cost.Model, ivs []Interval, density float64) *core.Instance {
	return &core.Instance{
		N:     len(ivs),
		Model: model,
		Sizer: cost.Func{
			SizeFn: func(i int) float64 { return ivs[i].Length() * density },
			MergedFn: func(set []int) float64 {
				out := Interval{Lo: 1, Hi: 0} // empty
				for _, q := range set {
					out = out.Union(ivs[q])
				}
				return out.Length() * density
			},
		},
		Overlap: func(i, j int) float64 {
			lo := max(ivs[i].Lo, ivs[j].Lo)
			hi := min(ivs[i].Hi, ivs[j].Hi)
			if lo > hi {
				return 0
			}
			return (hi - lo) * density
		},
	}
}

// Plan is the result of the contiguous DP: a partition of the input
// intervals (by original index) plus its cost.
type Plan struct {
	Plan core.Plan
	Cost float64
}

// MergeContiguous computes the cheapest partition of the intervals into
// runs contiguous in sorted-by-Lo order (ties by Hi), under the cost
// model with size = length × density. It runs in O(n²).
func MergeContiguous(model cost.Model, ivs []Interval, density float64) Plan {
	n := len(ivs)
	if n == 0 {
		return Plan{Plan: core.Plan{}}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := ivs[order[a]], ivs[order[b]]
		if ia.Lo != ib.Lo {
			return ia.Lo < ib.Lo
		}
		return ia.Hi < ib.Hi
	})

	// Prefix data over the sorted order.
	sizes := make([]float64, n)    // individual sizes
	prefix := make([]float64, n+1) // prefix sums of sizes
	for i, idx := range order {
		sizes[i] = ivs[idx].Length() * density
		prefix[i+1] = prefix[i] + sizes[i]
	}
	// maxHi[j][..] is implicit: for a run j..i (sorted), the bounding
	// interval is [ivs[order[j]].Lo, max Hi over the run]. We compute
	// max Hi incrementally inside the DP loop.

	const inf = 1e308
	best := make([]float64, n+1)
	split := make([]int, n+1)
	best[0] = 0
	for i := 1; i <= n; i++ {
		best[i] = inf
		// Extend runs ending at sorted position i-1, scanning the run
		// start j from i-1 down to 0 while tracking the run's max Hi.
		maxHi := -inf
		for j := i - 1; j >= 0; j-- {
			if h := ivs[order[j]].Hi; h > maxHi {
				maxHi = h
			}
			lo := ivs[order[j]].Lo
			merged := (maxHi - lo) * density
			if merged < 0 {
				merged = 0
			}
			k := float64(i - j)
			runCost := model.KM + model.KT*merged +
				model.KU*(k*merged-(prefix[i]-prefix[j]))
			if c := best[j] + runCost; c < best[i] {
				best[i] = c
				split[i] = j
			}
		}
	}

	var plan core.Plan
	for i := n; i > 0; i = split[i] {
		j := split[i]
		run := make([]int, 0, i-j)
		for k := j; k < i; k++ {
			run = append(run, order[k])
		}
		plan = append(plan, run)
	}
	return Plan{Plan: plan.Normalize(), Cost: best[n]}
}

// Algorithm adapts the contiguous DP to the core.Algorithm interface so
// it can be compared against the generic algorithms. It only accepts
// instances created by Instance (it re-derives interval data from the
// sizer via the stored slice).
type Algorithm struct {
	Model   cost.Model
	Ivs     []Interval
	Density float64
}

// Name returns "interval-dp".
func (Algorithm) Name() string { return "interval-dp" }

// Solve runs the contiguous DP, ignoring the instance (which must
// describe the same intervals).
func (a Algorithm) Solve(*core.Instance) core.Plan {
	return MergeContiguous(a.Model, a.Ivs, a.Density).Plan
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
