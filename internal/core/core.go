// Package core implements the paper's primary contribution: algorithms for
// the query merging problem (§5–§6). An Instance abstracts a set of n
// queries behind a size function and a cost model, so the same algorithms
// solve geographic workloads, the set-cover reduction gadget of §5.2, and
// synthetic benchmarks.
//
// The package provides the paper's full algorithm suite:
//
//   - Partition: the Bell-number exhaustive search of §6.1.1, valid under
//     the single-allocation property, used as the optimal baseline in the
//     evaluation.
//   - PairMerge: the greedy O(|Q|²) Pair Merging algorithm with a Profit
//     Table (§6.2.1).
//   - DirectedSearch: repeated randomized restarts with merge and extract
//     moves (§6.2.2).
//   - Clustering: the divide-and-conquer pruning of §6.3.
//
// The doubly-exponential search of §6.1 over all subcollections of the
// power set, which allows overlapping allocations, lives in the tests as
// the oracle for the single-allocation property.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
)

// SolverMetrics bundles the nil-safe instrument handles the solver
// engines report into. Every field may be nil (that aspect goes
// uncounted), and a nil *SolverMetrics disables solver instrumentation
// entirely at the cost of one branch per solve. Engines accumulate
// counts locally and flush once per solve, so the hot loops stay
// allocation- and atomic-free.
type SolverMetrics struct {
	// HeapPops counts candidate-heap pops in PairMerge's heap engine.
	HeapPops *metrics.Counter
	// Merges counts accepted merges across engines.
	Merges *metrics.Counter
	// Restarts counts DirectedSearch restarts executed.
	Restarts *metrics.Counter
	// Components counts overlap components partitioned by Clustering.
	Components *metrics.Counter
	// ConvergenceCost observes the best objective value at convergence.
	ConvergenceCost *metrics.Histogram
}

// Plan is a solution to the query merging problem: a collection M = {M_i}
// of sets of query indices. For partition-based algorithms every query
// appears in exactly one set; the §6.1 exhaustive algorithm may produce
// plans where a query appears in several sets (it never pays off under the
// §4 cost model, which is the single-allocation property).
type Plan [][]int

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan {
	out := make(Plan, len(p))
	for i, set := range p {
		out[i] = append([]int(nil), set...)
	}
	return out
}

// Normalize sorts each set and orders the sets by their first element so
// that equivalent plans compare equal. It returns the plan for chaining.
func (p Plan) Normalize() Plan {
	for _, set := range p {
		slices.Sort(set)
	}
	slices.SortFunc(p, func(a, b []int) int {
		if len(a) == 0 || len(b) == 0 {
			return cmp.Compare(len(b), len(a))
		}
		return cmp.Compare(a[0], b[0])
	})
	return p
}

// Equal reports whether the two plans contain the same sets. Both plans
// are normalized as a side effect.
func (p Plan) Equal(q Plan) bool {
	p.Normalize()
	q.Normalize()
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if len(p[i]) != len(q[i]) {
			return false
		}
		for j := range p[i] {
			if p[i][j] != q[i][j] {
				return false
			}
		}
	}
	return true
}

// String renders the plan as {{0 2} {1}}.
func (p Plan) String() string {
	return fmt.Sprint([][]int(p))
}

// IsPartition reports whether the plan is a partition of 0..n-1: every
// query appears in exactly one set.
func (p Plan) IsPartition(n int) bool {
	seen := make([]bool, n)
	count := 0
	for _, set := range p {
		for _, q := range set {
			if q < 0 || q >= n || seen[q] {
				return false
			}
			seen[q] = true
			count++
		}
	}
	return count == n
}

// Singletons returns the trivial plan where no queries are merged: the
// Cost_initial baseline of §9.2.
func Singletons(n int) Plan {
	p := make(Plan, n)
	for i := range p {
		p[i] = []int{i}
	}
	return p
}

// Instance is one query merging problem: n queries, a cost model, and a
// sizer providing size(q_i) and size(mrg(S)). Overlap optionally reports
// size(q_i ∩ q_j) for the refined clustering bound of §6.3; leave it nil
// when intersections cannot be computed.
type Instance struct {
	N       int
	Model   cost.Model
	Sizer   cost.Sizer
	Overlap func(i, j int) float64
	// Centers optionally gives a representative point per query (the
	// bounding-rect center for geographic workloads). Solvers with a
	// neighbor-pruned candidate stage use it to build a Z-order index;
	// nil disables pruning and those solvers fall back to exhaustive
	// candidate enumeration.
	Centers []geom.Point
	// Budget optionally bounds solver work (anytime mode). Nil means
	// unlimited; see Budget for the exhaustion contract.
	Budget *Budget
	// Metrics optionally instruments the solver engines; nil runs
	// uninstrumented.
	Metrics *SolverMetrics
}

// Cost returns the total cost of the plan under the instance's model.
func (inst *Instance) Cost(p Plan) float64 {
	return cost.PlanCost(inst.Model, inst.Sizer, p)
}

// memoized returns a view of the instance whose sizer caches merged
// sizes behind a concurrency-safe bitset-keyed cost.Memo, so repeated
// probes of the same union — across restarts, components or worker
// goroutines — hit the inner sizer once. Memo results are exact, so
// plans are unchanged. Instances whose sizer is already a Memo are
// returned as-is.
func memoized(inst *Instance) *Instance {
	if _, ok := inst.Sizer.(*cost.Memo); ok {
		return inst
	}
	return &Instance{
		N:       inst.N,
		Model:   inst.Model,
		Sizer:   cost.NewMemo(inst.Sizer, inst.N),
		Overlap: inst.Overlap,
		Centers: inst.Centers,
		Budget:  inst.Budget,
		Metrics: inst.Metrics,
	}
}

// Sub returns the instance restricted to the given queries: query i of
// the result is query members[i] of inst. It shares inst's model, budget
// and metrics and sizes through inst's sizer, translating every set it asks
// about in a pooled buffer; centers are gathered, so a solver on it stays
// anytime- and pruning-capable. members must not change while the result
// is in use. A pair-merge solve of a group needs none of this: see
// PairMerge.GroupPlan.
func (inst *Instance) Sub(members []int) *Instance {
	sub := &Instance{
		N:       len(members),
		Model:   inst.Model,
		Sizer:   subSizer{inner: inst.Sizer, members: members},
		Budget:  inst.Budget,
		Metrics: inst.Metrics,
	}
	if inst.Centers != nil {
		sub.Centers = make([]geom.Point, len(members))
		for i, q := range members {
			sub.Centers[i] = inst.Centers[q]
		}
	}
	if inst.Overlap != nil {
		sub.Overlap = func(i, j int) float64 { return inst.Overlap(members[i], members[j]) }
	}
	return sub
}

// subSizer is the sizer of a sub-instance: it translates local indices to
// the parent's.
type subSizer struct {
	inner   cost.Sizer
	members []int
}

func (s subSizer) Size(i int) float64 { return s.inner.Size(s.members[i]) }

// subScratch pools the translated index sets of MergedSize. A probe cannot
// keep one on its stack, because the inner Sizer is an interface and the
// slice escapes into the call, and sub-instances are solved concurrently
// (Clustering components), so the scratch is pooled, not a field.
var subScratch = sync.Pool{New: func() any {
	buf := make([]int, 0, 32)
	return &buf
}}

// MergedSize translates the set and asks the inner Sizer, which like
// every Sizer does not retain its argument.
func (s subSizer) MergedSize(set []int) float64 {
	bp := subScratch.Get().(*[]int)
	mapped := (*bp)[:0]
	for _, q := range set {
		mapped = append(mapped, s.members[q])
	}
	size := s.inner.MergedSize(mapped)
	*bp = mapped[:0]
	subScratch.Put(bp)
	return size
}

// InitialCost returns the cost of answering every query separately
// (Cost_initial in §9.2).
func (inst *Instance) InitialCost() float64 {
	return inst.Cost(Singletons(inst.N))
}

// Algorithm solves query merging instances. Implementations must return a
// valid plan: a total cover of the instance's queries.
type Algorithm interface {
	// Name returns a short identifier for reports and benchmarks.
	Name() string
	// Solve returns a plan for the instance.
	Solve(inst *Instance) Plan
}

// Performance is the distance-to-optimal metric of §9.2:
//
//	(Cost_heuristic − Cost_optimum) / (Cost_initial − Cost_optimum)
//
// 0 means the heuristic found the optimum; 1 means it did no better than
// not merging at all. When no merging helps (Cost_initial == Cost_optimum)
// the distance is 0 by convention.
func Performance(initial, optimum, heuristic float64) float64 {
	num := heuristic - optimum
	denom := initial - optimum
	// Guard against floating-point noise: costs equal up to relative
	// epsilon count as equal, so degenerate instances score 0 instead
	// of 0/0 artifacts.
	eps := 1e-9 * math.Max(1, math.Abs(initial))
	if denom <= eps || num <= eps {
		return 0
	}
	return num / denom
}

// NoMerge is the strawman algorithm that never merges: every query is
// processed and transmitted separately, as in the standard subscription
// service of §1. It provides the Cost_initial baseline of §9.2.
type NoMerge struct{}

// Name returns "no-merge".
func (NoMerge) Name() string { return "no-merge" }

// Solve returns the all-singletons plan.
func (NoMerge) Solve(inst *Instance) Plan { return Singletons(inst.N) }
