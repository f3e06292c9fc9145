package qsub

import (
	"fmt"
	"testing"
	"time"

	"qsub/internal/core"
)

// This file pins the sub-quadratic scaling claim of the neighbor-pruned
// solver engine (DESIGN.md "Sub-quadratic & anytime solving"): with the
// candidate stage seeded from the Z-order neighbor index, PairMerge at
// n=2000 should land in the same wall-clock band as the full O(n²)
// profit table at n=200. Run the matrix with
// `go test -run '^$' -bench SolverScale .`.

// BenchmarkSolverScaleFull is the exactness oracle: the full candidate
// table across the scaling range. Quadratic by construction — the n=2000
// row is the baseline the pruned engine is measured against.
func BenchmarkSolverScaleFull(b *testing.B) {
	for _, n := range []int{200, 1000, 2000} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PairMerge{}.Solve(inst)
			}
		})
	}
}

// BenchmarkSolverScalePruned runs the same instances with the candidate
// stage restricted to each query's k nearest Z-order neighbors.
func BenchmarkSolverScalePruned(b *testing.B) {
	for _, n := range []int{200, 1000, 2000} {
		inst := benchInstance(n, int64(n))
		for _, k := range []int{8, 16} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.PairMerge{Neighbors: k}.Solve(inst)
				}
			})
		}
	}
}

// BenchmarkSolverScaleBudget is the anytime row: a deadline budget cuts
// the pruned solve short and returns the best-so-far plan. The point is
// the latency ceiling, not the plan quality (EXPERIMENTS.md covers
// quality).
func BenchmarkSolverScaleBudget(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d/budget=2ms", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				budgeted := *inst
				budgeted.Budget = core.NewBudget(2*time.Millisecond, 0)
				plan := core.PairMerge{Neighbors: 16}.Solve(&budgeted)
				if !plan.IsPartition(inst.N) {
					b.Fatal("budgeted solve returned a non-partition")
				}
			}
		})
	}
}
