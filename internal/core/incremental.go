package core

import "qsub/internal/cost"

// Incremental maintains a merged plan while queries arrive and depart,
// implementing the future-work item of §11: "We already have a set of
// queries that have been merged, and a new query arrives. Can we
// incrementally compute a new partition, without starting from scratch?"
//
// Add places the new query into the existing set where it improves total
// cost the most (or alone, if no placement helps), then runs a bounded
// local repair: while a beneficial merge between candidate sets exists,
// apply it. Remove deletes the query from its set and re-evaluates
// whether the survivors of that set are better off split apart.
//
// Sets live on the cost.QSet bitset substrate with cached per-set costs,
// the instance's sizer is wrapped in a cost.Memo (unless it already is
// one), and every candidate probe stages its members in reused scratch
// buffers — a warm Add/Remove cycle allocates nothing. Set order is
// preserved across every operation (removals compact in place instead of
// swapping the tail in), so a fixed operation sequence always yields the
// same plan.
//
// SetNeighbors bounds repair to the churned query's spatial neighborhood
// via the same Z-order index the pruned PairMerge engine uses, turning
// each Add/Remove into O(k·|sets in window|) work instead of a global
// O(|sets|²) sweep.
//
// Incremental plans are generally within a few percent of a full re-merge
// (see the comparison benchmarks) at a fraction of the cost.
type Incremental struct {
	inst *Instance
	sets []incSet

	// Neighbor scoping (SetNeighbors): ni is built lazily from
	// inst.Centers; k == 0 keeps candidate generation global.
	ni *NeighborIndex
	k  int

	// Reused scratch: member staging for cost probes, a one-element
	// buffer for standalone costs, window-query and changed-query
	// lists, and the candidate set-index list for scoped repair.
	bufA, bufB, bufU []int
	single           [1]int
	window           []int
	changed          []int
	cand             []int
	// free recycles the bitsets of retired sets, so steady-state churn
	// (sets created by dissolve/Add, destroyed by merge/Remove) does
	// not allocate.
	free []QSet
}

// incSet is one live merged set: member bitset, member count, and the
// cached cost.SetCost of its ascending member order — the same order
// Instance.Cost evaluates, so the cached total tracks the real plan cost
// exactly.
type incSet struct {
	qs    QSet
	count int
	cost  float64
}

// NewIncremental starts from the plan produced by a full algorithm run.
// The plan is copied onto the bitset substrate (empty sets are dropped);
// the caller keeps ownership of its plan. The instance's sizer is
// memoized so repeated repair probes of the same union are cached.
func NewIncremental(inst *Instance, plan Plan) *Incremental {
	inc := &Incremental{inst: memoized(inst)}
	for _, set := range plan {
		if len(set) == 0 {
			continue
		}
		qs := cost.QSetOf(set, inst.N)
		inc.bufA = qs.AppendIndices(inc.bufA[:0])
		inc.sets = append(inc.sets, incSet{
			qs:    qs,
			count: len(set),
			cost:  cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.bufA),
		})
	}
	return inc
}

// SetNeighbors bounds repair and Add-placement candidates to sets owning
// queries within the ±k Z-order window of the churned query, using the
// instance's Centers. k <= 0 (or an instance without centers) keeps the
// candidate scan global.
func (inc *Incremental) SetNeighbors(k int) {
	inc.k = k
	if k > 0 && inc.ni == nil && len(inc.inst.Centers) == inc.inst.N {
		inc.ni = NewNeighborIndex(inc.inst.Centers)
	}
}

// Plan returns a copy of the current plan: one ascending member list per
// set, in stable set order.
func (inc *Incremental) Plan() Plan {
	out := make(Plan, 0, len(inc.sets))
	for i := range inc.sets {
		s := &inc.sets[i]
		out = append(out, s.qs.AppendIndices(make([]int, 0, s.count)))
	}
	return out
}

// Add inserts query q (an index valid for the instance's sizer) into the
// plan. The instance's N must already account for q.
func (inc *Incremental) Add(q int) {
	inc.single[0] = q
	standalone := cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.single[:])
	inc.changed = append(inc.changed[:0], q)
	cand := inc.candidateIndices(inc.changed)

	bestGain := 0.0
	bestSet := -1
	budget := inc.inst.Budget
	for _, i := range cand {
		if !budget.Step(1) {
			break
		}
		s := &inc.sets[i]
		inc.bufA = s.qs.AppendIndices(inc.bufA[:0])
		inc.bufU = insertSorted(inc.bufU[:0], inc.bufA, q)
		gain := s.cost + standalone - cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.bufU)
		if gain > bestGain {
			bestGain, bestSet = gain, i
		}
	}
	if bestSet >= 0 {
		s := &inc.sets[bestSet]
		s.qs.Add(q)
		s.count++
		inc.bufA = s.qs.AppendIndices(inc.bufA[:0])
		s.cost = cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.bufA)
	} else {
		inc.appendSingleton(q, standalone)
	}
	inc.repair(inc.changed)
}

// Remove deletes query q from the plan, reporting whether it was found.
// If q's former set had other members, the survivors are kept together
// only while that remains cheaper than splitting them into singletons
// re-greeded by repair. Removal compacts in place, so the relative order
// of the surviving sets — and therefore the emitted plan — is stable.
func (inc *Incremental) Remove(q int) bool {
	if q < 0 || q >= inc.inst.N {
		return false
	}
	idx := -1
	for i := range inc.sets {
		if inc.sets[i].qs.Contains(q) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	s := &inc.sets[idx]
	s.qs.Remove(q)
	s.count--
	inc.changed = append(inc.changed[:0], q)
	if s.count == 0 {
		inc.deleteSet(idx)
		inc.repair(inc.changed)
		return true
	}

	inc.bufA = s.qs.AppendIndices(inc.bufA[:0])
	together := cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.bufA)
	apart := 0.0
	for _, m := range inc.bufA {
		inc.single[0] = m
		apart += cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.single[:])
	}
	inc.changed = append(inc.changed, inc.bufA...)
	if together <= apart {
		s.cost = together
	} else {
		// Dissolve: splice the survivors in as singletons at the old
		// set's position, in member order, keeping ordering stable.
		// bufB snapshots the members because bufA is clobbered by the
		// singleton cost probes below.
		members := append(inc.bufB[:0], inc.bufA...)
		inc.bufB = members
		inc.free = append(inc.free, s.qs)
		inc.sets[idx] = inc.singletonSet(members[0])
		for off, m := range members[1:] {
			inc.insertSet(idx+1+off, inc.singletonSet(m))
		}
	}
	inc.repair(inc.changed)
	return true
}

// repair greedily applies beneficial pairwise merges between candidate
// sets until none remains — the same loop as PairMerge but starting from
// the current plan. Candidates are all sets, or only the sets in the
// changed queries' neighborhood when SetNeighbors is active.
func (inc *Incremental) repair(changed []int) {
	cand := inc.candidateIndices(changed)
	budget := inc.inst.Budget
	for {
		if !budget.Step(int64(len(cand))) {
			return
		}
		bestGain := 0.0
		bestA, bestB := -1, -1
		for ai := 0; ai < len(cand); ai++ {
			si := &inc.sets[cand[ai]]
			inc.bufA = si.qs.AppendIndices(inc.bufA[:0])
			for bi := ai + 1; bi < len(cand); bi++ {
				sj := &inc.sets[cand[bi]]
				inc.bufB = sj.qs.AppendIndices(inc.bufB[:0])
				inc.bufU = mergeSorted(inc.bufU[:0], inc.bufA, inc.bufB)
				gain := si.cost + sj.cost - cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.bufU)
				if gain > bestGain {
					bestGain, bestA, bestB = gain, ai, bi
				}
			}
		}
		if bestA < 0 {
			return
		}
		// cand is ascending, so i < j: merge j into i (keeping i's
		// position) and compact j out in place.
		i, j := cand[bestA], cand[bestB]
		si := &inc.sets[i]
		si.qs.Or(inc.sets[j].qs)
		si.count += inc.sets[j].count
		inc.bufA = si.qs.AppendIndices(inc.bufA[:0])
		si.cost = cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.bufA)
		inc.deleteSet(j)
		// Drop j from the candidate list and shift indices past it.
		cand = append(cand[:bestB], cand[bestB+1:]...)
		for ci := range cand {
			if cand[ci] > j {
				cand[ci]--
			}
		}
	}
}

// candidateIndices returns the ascending set indices eligible for
// placement/repair around the changed queries: every set when scoping is
// off, otherwise the sets owning a query inside any changed query's ±k
// Z-order window (including the changed queries themselves).
func (inc *Incremental) candidateIndices(changed []int) []int {
	inc.cand = inc.cand[:0]
	if inc.ni == nil || inc.k <= 0 {
		for i := range inc.sets {
			inc.cand = append(inc.cand, i)
		}
		return inc.cand
	}
	inc.window = inc.window[:0]
	for _, q := range changed {
		inc.window = append(inc.window, q)
		lo, hi := inc.ni.window(q, inc.k)
		for rank := lo; rank <= hi; rank++ {
			if r := inc.ni.order[rank]; r != q {
				inc.window = append(inc.window, r)
			}
		}
	}
	for i := range inc.sets {
		qs := inc.sets[i].qs
		for _, w := range inc.window {
			if qs.Contains(w) {
				inc.cand = append(inc.cand, i)
				break
			}
		}
	}
	return inc.cand
}

// newQSet returns an empty bitset, recycling a retired one when
// available.
func (inc *Incremental) newQSet() QSet {
	if n := len(inc.free); n > 0 {
		qs := inc.free[n-1]
		inc.free = inc.free[:n-1]
		qs.Reset()
		return qs
	}
	return cost.NewQSet(inc.inst.N)
}

// singletonSet builds the one-member set for q with its cached cost.
func (inc *Incremental) singletonSet(q int) incSet {
	qs := inc.newQSet()
	qs.Add(q)
	inc.single[0] = q
	return incSet{qs: qs, count: 1, cost: cost.SetCost(inc.inst.Model, inc.inst.Sizer, inc.single[:])}
}

// appendSingleton appends {q} with a precomputed standalone cost.
func (inc *Incremental) appendSingleton(q int, standalone float64) {
	qs := inc.newQSet()
	qs.Add(q)
	inc.sets = append(inc.sets, incSet{qs: qs, count: 1, cost: standalone})
}

// deleteSet removes the set at idx, preserving the order of the rest and
// recycling the retired bitset.
func (inc *Incremental) deleteSet(idx int) {
	inc.free = append(inc.free, inc.sets[idx].qs)
	inc.sets = append(inc.sets[:idx], inc.sets[idx+1:]...)
}

// insertSet splices s in at idx, preserving the order of the rest.
func (inc *Incremental) insertSet(idx int, s incSet) {
	inc.sets = append(inc.sets, incSet{})
	copy(inc.sets[idx+1:], inc.sets[idx:])
	inc.sets[idx] = s
}

// insertSorted appends members (ascending) onto dst with q spliced into
// its ascending position; q must not already be a member.
func insertSorted(dst, members []int, q int) []int {
	i := 0
	for i < len(members) && members[i] < q {
		dst = append(dst, members[i])
		i++
	}
	dst = append(dst, q)
	return append(dst, members[i:]...)
}

// mergeSorted appends the merge of two disjoint ascending lists onto dst.
func mergeSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
