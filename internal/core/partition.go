package core

import "qsub/internal/cost"

// Partition is the exhaustive algorithm of §6.1.1: it relies on the
// single-allocation property of the §4 cost model to enumerate only set
// partitions of Q rather than arbitrary covers. The number of partitions
// of n queries is the Bell number B(n) (B(12) = 4,213,597), so instances
// up to n ≈ 12-13 are feasible — exactly the range the paper's evaluation
// uses for its optimal baseline.
//
// The implementation grows partitions one query at a time, mirroring the
// search tree of Fig 8/9, and prunes branches whose accumulated cost
// already exceeds the best complete partition found (queries can only add
// cost under the model's non-negativity, preserved by pruning only on
// completed sets). Merged sizes are memoized per subset unless
// DisableMemo is set (kept for the ablation benchmark).
type Partition struct {
	// MaxN bounds the instance size; zero means the default of 14.
	MaxN int
	// DisableMemo turns off merged-size memoization (ablation).
	DisableMemo bool
	// DisablePrune turns off branch-and-bound pruning. Pruning is only
	// sound when MergedSize is monotone (supersets never shrink);
	// non-monotone gadgets such as the §5.2 set-cover reduction must
	// disable it.
	DisablePrune bool
}

// Name returns "partition".
func (Partition) Name() string { return "partition" }

// Solve enumerates all partitions of the instance's queries and returns
// the cheapest.
func (p Partition) Solve(inst *Instance) Plan {
	maxN := p.MaxN
	if maxN == 0 {
		maxN = 14
	}
	if inst.N > maxN {
		panic("core: Partition limited by Bell-number growth; raise MaxN only with care")
	}
	if inst.N == 0 {
		return Plan{}
	}
	sizer := inst.Sizer
	if !p.DisableMemo {
		// The memo handles any n (multi-word bitset keys past 64), so
		// no size gate is needed even when MaxN is raised.
		sizer = cost.NewMemo(sizer, inst.N)
	}
	e := &partitionEnum{
		inst:    inst,
		sizer:   sizer,
		best:    Singletons(inst.N),
		noPrune: p.DisablePrune,
	}
	e.bestCost = cost.PlanCost(inst.Model, sizer, e.best)
	e.extend(0, nil, 0)
	return e.best.Normalize()
}

// partitionEnum carries the recursion state of the partition search tree.
type partitionEnum struct {
	inst     *Instance
	sizer    cost.Sizer
	current  Plan
	best     Plan
	bestCost float64
	noPrune  bool
}

// extend places query q into every existing set of the current partial
// partition and into a new singleton set, recursing per Fig 9. costSoFar
// is the cost of the current partition's sets over queries 0..q-1; the
// per-set costs are recomputed for the touched set only.
func (e *partitionEnum) extend(q int, setCosts []float64, costSoFar float64) {
	if q == e.inst.N {
		if costSoFar < e.bestCost {
			e.bestCost = costSoFar
			e.best = e.current.Clone()
		}
		return
	}
	// Add q to each existing set.
	for i := range e.current {
		old := setCosts[i]
		e.current[i] = append(e.current[i], q)
		newCost := cost.SetCost(e.inst.Model, e.sizer, e.current[i])
		total := costSoFar - old + newCost
		if e.noPrune || total < e.bestCost { // prune dominated branches
			setCosts[i] = newCost
			e.extend(q+1, setCosts, total)
			setCosts[i] = old
		}
		e.current[i] = e.current[i][:len(e.current[i])-1]
	}
	// Add q as a new singleton set (the N_0 child of Fig 9).
	e.current = append(e.current, []int{q})
	newCost := cost.SetCost(e.inst.Model, e.sizer, e.current[len(e.current)-1])
	total := costSoFar + newCost
	if e.noPrune || total < e.bestCost {
		setCosts = append(setCosts, newCost)
		e.extend(q+1, setCosts, total)
		setCosts = setCosts[:len(setCosts)-1]
	}
	e.current = e.current[:len(e.current)-1]
}
