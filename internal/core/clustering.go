package core

import (
	"runtime"
	"sort"
	"sync"

	"qsub/internal/cost"
)

// Clustering is the divide-and-conquer algorithm of §6.3. It computes a
// pairwise eligibility relation — two queries can share a merged set only
// if the best-case gain of putting them together is positive (the §6.3
// bound, refined with intersection sizes when the instance provides an
// Overlap function) — takes connected components of the eligibility
// graph, and solves each component independently with an inner algorithm.
// Components small enough for the exhaustive Partition algorithm are
// solved optimally; larger ones fall back to the Inner heuristic.
//
// Both expensive phases are parallel: the O(n²) eligibility probe is
// sharded by row across a bounded worker pool, and the components —
// independent subproblems by construction — are solved concurrently.
// Components are ordered by their smallest member and every plan is
// normalized, so the result is identical at any Parallelism.
type Clustering struct {
	// Inner solves each cluster; nil means PairMerge{}.
	Inner Algorithm
	// ExactThreshold is the largest cluster solved with Partition
	// instead of Inner. Zero disables the exact path.
	ExactThreshold int
	// Parallelism bounds the worker pool for the eligibility probe and
	// the per-component solves. Zero means runtime.GOMAXPROCS(0); 1
	// runs sequentially.
	Parallelism int
}

// Name returns "clustering+<inner>".
func (c Clustering) Name() string {
	inner := c.Inner
	if inner == nil {
		inner = PairMerge{}
	}
	return "clustering+" + inner.Name()
}

// Solve partitions the queries into eligibility clusters and merges within
// each cluster only.
func (c Clustering) Solve(inst *Instance) Plan {
	if inst.N == 0 {
		return Plan{}
	}
	inner := c.Inner
	if inner == nil {
		inner = PairMerge{}
	}
	workers := c.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One concurrency-safe size cache shared by the eligibility probe
	// and every component solver.
	inst = memoized(inst)

	// Eligibility probe: eligible[i] collects the partners j > i that
	// could profitably share a set with i. Rows are independent, so they
	// run across the pool; each worker writes only its own rows.
	eligible := make([][]int, inst.N)
	probeRow := func(i int) {
		pair := []int{0, 0}
		for j := i + 1; j < inst.N; j++ {
			overlap := 0.0
			if inst.Overlap != nil {
				overlap = inst.Overlap(i, j)
			}
			pair[0], pair[1] = i, j
			m12 := inst.Sizer.MergedSize(pair)
			if cost.MergeEligible(inst.Model, inst.Sizer.Size(i), inst.Sizer.Size(j), m12, overlap) {
				eligible[i] = append(eligible[i], j)
			}
		}
	}
	runIndexed(inst.N, workers, probeRow)

	// Union-find over the eligibility graph (sequential: cheap).
	parent := make([]int, inst.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, js := range eligible {
		for _, j := range js {
			parent[find(i)] = find(j)
		}
	}

	// Components in deterministic order: keyed by root, members
	// ascending, components sorted by smallest member.
	byRoot := map[int][]int{}
	for q := 0; q < inst.N; q++ {
		r := find(q)
		byRoot[r] = append(byRoot[r], q)
	}
	components := make([][]int, 0, len(byRoot))
	for _, members := range byRoot {
		components = append(components, members)
	}
	sort.Slice(components, func(a, b int) bool {
		return components[a][0] < components[b][0]
	})
	if sm := inst.Metrics; sm != nil {
		sm.Components.Add(uint64(len(components)))
	}

	// Solve every multi-query component on the pool; singletons pass
	// through.
	subPlans := make([]Plan, len(components))
	solveComponent := func(ci int) {
		members := components[ci]
		if len(members) == 1 {
			subPlans[ci] = Plan{members}
			return
		}
		sub := inst.Sub(members)
		var subPlan Plan
		if c.ExactThreshold > 0 && len(members) <= c.ExactThreshold {
			subPlan = Partition{}.Solve(sub)
		} else {
			subPlan = inner.Solve(sub)
		}
		mappedPlan := make(Plan, len(subPlan))
		for si, set := range subPlan {
			mapped := make([]int, len(set))
			for i, q := range set {
				mapped[i] = members[q]
			}
			mappedPlan[si] = mapped
		}
		subPlans[ci] = mappedPlan
	}
	runIndexed(len(components), workers, solveComponent)

	var plan Plan
	for _, sub := range subPlans {
		plan = append(plan, sub...)
	}
	return plan.Normalize()
}

// runIndexed executes fn(0..n-1) on up to `workers` goroutines. fn calls
// must be independent; with workers ≤ 1 everything runs on the caller's
// goroutine.
func runIndexed(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
