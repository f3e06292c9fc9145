package core

import (
	"sync"

	"qsub/internal/cost"
	"qsub/internal/geom"
)

// QSet is the bitset query-set representation shared across the solver
// engine (see cost.QSet): []uint64 words with a single-word fast path for
// instances of at most 64 queries, used for set unions, membership tests
// and merged-size cache keys.
type QSet = cost.QSet

// PairMerge is the greedy Pair Merging algorithm of §6.2.1. It starts
// from singleton sets and repeatedly merges the pair of sets with the
// largest positive Δ-cost
//
//	Cost_old − Cost_new = K_M + K_T·(Ra + Rb − Rm) + K_U·(p·Ra + r·Rb − (p+r)·Rm)
//
// until no merge reduces total cost.
//
// The paper keeps the deltas in a Profit Table and scans it for the best
// pair every iteration. This engine keeps them in the shared
// CandidateHeap instead, seeded from the shared Pairs generator with
// every positive pair delta: popping the top yields the best live pair in
// O(log n), entries referencing merged-away sets are discarded as they
// surface (lazy invalidation), and a merge pushes only the new set's
// deltas against the survivors. One iteration is O(n log n) instead of
// the table's O(n²), and probe unions run through a reused scratch buffer
// instead of allocating a fresh []int per delta. Equal deltas pop by
// smaller set ids, the order in which the paper's scan meets the
// singleton pairs; the tests pin that against a Profit Table oracle of
// their own.
//
// Setting Neighbors > 0 on an instance with Centers prunes the candidates:
// the heap is seeded only with pairs inside each query's ±k Z-order window
// (see NeighborIndex), and a merge regenerates candidates from the merged
// set's neighborhood instead of against every survivor. Candidate
// generation drops from O(n²) to O(n·k); at k ≥ n the window covers every
// pair and the plan is bit-identical to the unpruned one, which the
// equivalence tests pin.
//
// A solve runs on pooled working state (pmEngine), so it allocates its
// result and nothing else. It honors Instance.Budget: when the budget
// trips it stops generating candidates, finishes nothing speculative, and
// returns the (always valid) partition reached so far.
//
// GroupCost and GroupPlan solve a group of an instance's queries in place,
// as channel allocation does for every candidate channel (§7.2): the same
// engine on the parent instance, its sizes, budget and metrics, with the
// group's queries as the solve's local indices.
type PairMerge struct {
	// Neighbors, when positive, restricts candidate pairs to each
	// query's ±Neighbors Z-order window. Requires Instance.Centers;
	// without centers every pair is a candidate. 0 means exact
	// (unpruned).
	Neighbors int
}

// Name returns "pair-merge".
func (PairMerge) Name() string { return "pair-merge" }

// Solve runs the greedy pair merging loop.
func (pm PairMerge) Solve(inst *Instance) Plan {
	if inst.N == 0 {
		return Plan{}
	}
	e := pm.run(inst, nil, inst.Model)
	defer e.release()
	return e.plan()
}

// SolveCost returns inst.Cost(pm.Solve(inst)), to the bit, without
// building the plan.
func (pm PairMerge) SolveCost(inst *Instance) float64 {
	if inst.N == 0 {
		return 0
	}
	e := pm.run(inst, nil, inst.Model)
	defer e.release()
	return e.cost()
}

// GroupPlan solves the sub-instance of the given queries of inst under
// model and returns its plan in inst's indices: what pm.Solve returns on
// inst.Sub(members) with that model, each set mapped through members. It
// builds no sub-instance and does not retain members.
func (pm PairMerge) GroupPlan(inst *Instance, members []int, model cost.Model) Plan {
	if len(members) == 0 {
		return Plan{}
	}
	e := pm.run(inst, members, model)
	defer e.release()
	return e.plan()
}

// GroupCost returns the cost of GroupPlan(inst, members, model) under
// model, to the bit, without building the plan: what channel allocation
// asks of a merger hundreds of times per plan. A warm unpruned solve
// allocates nothing.
func (pm PairMerge) GroupCost(inst *Instance, members []int, model cost.Model) float64 {
	if len(members) == 0 {
		return 0
	}
	e := pm.run(inst, members, model)
	defer e.release()
	return e.cost()
}

// run solves the queries members of inst (all of them when members is
// nil) under model on a pooled engine, which the caller releases.
func (pm PairMerge) run(inst *Instance, members []int, model cost.Model) *pmEngine {
	e := startEngine(inst, members, model)
	// The pruned solve deliberately takes the instance's sizer as-is
	// (no forced memo wrap): wrapping only one configuration could let a
	// bitset-keyed cache return a value computed from a different
	// member ordering than the raw path would use, breaking the
	// bit-identity pin against the unpruned solve for order-sensitive
	// sizers.
	var ni *NeighborIndex
	if pm.Neighbors > 0 && len(inst.Centers) == inst.N {
		centers := inst.Centers
		if members != nil {
			e.centers = grown(e.centers, e.n)
			for i, q := range members {
				e.centers[i] = inst.Centers[q]
			}
			centers = e.centers
		}
		ni = NewNeighborIndex(centers)
	}
	e.solve(ni, pm.Neighbors)
	return e
}

// hSet is one set during the heap-driven merge: its member bitset, member
// count, cached merged size and, when the engine applies the disjoint
// bound, the bounding rectangle of its members. Sets are identified by a
// stable id (index into the sets slice); merging two sets retires both ids
// and appends a new one, which is what makes stale heap entries
// detectable.
type hSet struct {
	qs     QSet
	count  int
	merged float64
	rect   geom.Rect
}

// pmEngine is the working state of one heap-driven merge — the sets, their
// alive flags, the candidate heap, one []uint64 backing every set's
// bitset, and the scratch buffers — kept in a pool between solves: channel
// allocation solves hundreds of small groups per plan, and allocating
// this state afresh for each was most of a plan's garbage. What a solve
// returns (plan or cost) never aliases the engine's memory.
//
// The engine works in local indices 0..n-1. Local query i is query
// global[i] of the instance, or query i when global is nil (the solve
// covers the whole instance); sizes are asked for, and plans returned, in
// the instance's indices.
type pmEngine struct {
	inst   *Instance
	model  cost.Model
	global []int // the caller's members; nil for the identity
	n      int
	// pairs is the instance's table of singleton-pair merged sizes (see
	// tableSizer), nil when its sizer has none.
	pairs []float64
	// rects are the instance's query rectangles when the disjoint bound
	// applies (see probe), nil otherwise.
	rects []geom.Rect

	sets  []hSet
	alive []bool
	live  int // number of alive sets
	heap  CandidateHeap
	words []uint64 // bitset of set id is words[id*w : (id+1)*w], w words per set
	w     int

	scratch []int        // probe unions; member lists in plan and cost
	first   []int        // plan and cost: first[q] is the alive set whose smallest member is q, or -1
	centers []geom.Point // a pruned group solve's centers

	// Pruned solve only: the live set owning each query, the per-merge
	// dedupe marks and their epoch (see startNeighbors), and the merged
	// set's members.
	setOf, mark, members []int
	epoch                int

	pops, merges, probes uint64
}

var pmEngines = sync.Pool{New: func() any { return new(pmEngine) }}

// grown returns s with length n, reallocating only when the capacity is
// short; the contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// startEngine takes an engine from the pool and sets it up with the
// singletons of the queries members of inst (all of them when members is
// nil). The caller hands it back with release.
func startEngine(inst *Instance, members []int, model cost.Model) *pmEngine {
	e := pmEngines.Get().(*pmEngine)
	n := inst.N
	if members != nil {
		n = len(members)
	}
	e.inst, e.model, e.global, e.n = inst, model, members, n
	e.pairs, e.rects = nil, nil
	if ts, ok := inst.Sizer.(tableSizer); ok {
		e.pairs = ts.pairs
	} else if model.KT >= 0 && model.KU >= 0 {
		// The bound needs PairDelta non-increasing in the merged size.
		e.rects = disjointRects(inst.Sizer)
	}
	e.live, e.w = n, cost.QSetWords(n)
	e.pops, e.merges, e.probes = 0, 0, 0
	// A solve creates at most n-1 merged sets on top of the n singletons.
	e.words = grown(e.words, 2*n*e.w)
	clear(e.words[:n*e.w])
	e.sets = grown(e.sets, 2*n)[:n]
	e.alive = grown(e.alive, 2*n)[:n]
	for i := range e.sets {
		qs := e.qset(i)
		qs.Add(i)
		e.sets[i] = hSet{qs: qs, count: 1, merged: inst.Sizer.Size(e.id(i))}
		if e.rects != nil {
			e.sets[i].rect = e.rects[e.id(i)]
		}
		e.alive[i] = true
	}
	e.heap = e.heap[:0]
	e.scratch = grown(e.scratch, n)[:0]
	return e
}

// release reports the solve's counts and returns the engine to the pool.
func (e *pmEngine) release() {
	if sm := e.inst.Metrics; sm != nil {
		sm.HeapPops.Add(e.pops)
		sm.Merges.Add(e.merges)
	}
	// A table sizer has its lookups counted here, once per solve, from
	// the engine's own count: a shared counter bumped per lookup by the
	// two concurrent climbs of BestOfBoth cost more than the lookups.
	if ts, ok := e.inst.Sizer.(tableSizer); ok {
		ts.lookups.Add(e.probes)
	}
	e.inst, e.global, e.pairs, e.rects = nil, nil, nil, nil
	pmEngines.Put(e)
}

// id returns the instance index of local query q.
func (e *pmEngine) id(q int) int {
	if e.global == nil {
		return q
	}
	return e.global[q]
}

// appendIDs appends the members of qs to buf as instance indices, in
// ascending local order.
func (e *pmEngine) appendIDs(buf []int, qs QSet) []int {
	at := len(buf)
	buf = qs.AppendIndices(buf)
	if e.global != nil {
		for k, q := range buf[at:] {
			buf[at+k] = e.global[q]
		}
	}
	return buf
}

func (e *pmEngine) qset(id int) QSet { return e.words[id*e.w : (id+1)*e.w : (id+1)*e.w] }

// probe computes the Δ-cost and merged size of merging sets a and b. Two
// singletons read their merged size from the pair table when there is
// one. Otherwise the member sets are disjoint, so the union's indices are
// the two index lists concatenated into the reused scratch buffer; Sizer
// implementations must not retain the slice (none do).
//
// Where sizes add up over disjoint rectangles (e.rects, see
// disjointRects), a pair whose rectangles share no point is first checked
// against the §6.3 argument of cost.MergeEligible: their merged rectangle
// holds the tuples of both, so Rm ≥ Ra + Rb, and PairDelta does not grow
// with Rm (in floating point too, for KT, KU ≥ 0). When the Δ-cost at
// Rm = Ra + Rb is not positive the pair can never be pushed, and probe
// returns that bound unprobed, with rm 0.
func (e *pmEngine) probe(a, b int) (d, rm float64) {
	sa, sb := &e.sets[a], &e.sets[b]
	if e.rects != nil && disjoint(sa.rect, sb.rect) {
		if d = cost.PairDelta(e.model, sa.count, sa.merged, sb.count, sb.merged, sa.merged+sb.merged); d <= 0 {
			return d, 0
		}
	}
	e.probes++
	if e.pairs != nil && a < e.n && b < e.n {
		i, j := e.id(a), e.id(b)
		if i > j {
			i, j = j, i
		}
		rm = e.pairs[i*e.inst.N+j]
	} else {
		e.scratch = e.appendIDs(e.scratch[:0], sa.qs)
		e.scratch = e.appendIDs(e.scratch, sb.qs)
		rm = e.inst.Sizer.MergedSize(e.scratch)
	}
	return cost.PairDelta(e.model, sa.count, sa.merged, sb.count, sb.merged, rm), rm
}

// merge retires both endpoints of the popped entry and appends their
// union as a new set, whose id it returns.
func (e *pmEngine) merge(top Candidate) int {
	e.merges++
	id := len(e.sets)
	qs := e.qset(id)
	copy(qs, e.sets[top.A].qs)
	qs.Or(e.sets[top.B].qs)
	e.sets = append(e.sets, hSet{qs: qs, count: e.sets[top.A].count + e.sets[top.B].count, merged: top.Size,
		rect: e.sets[top.A].rect.Union(e.sets[top.B].rect)})
	e.alive[top.A], e.alive[top.B] = false, false
	e.alive = append(e.alive, true)
	e.live--
	return id
}

// disjoint reports whether the closed rectangles a and b share no point.
// A NaN edge makes every comparison false, so such a pair is never
// reported disjoint.
func disjoint(a, b geom.Rect) bool {
	return a.MaxX < b.MinX || b.MaxX < a.MinX || a.MaxY < b.MinY || b.MaxY < a.MinY
}

// pop removes the best candidate and reports whether it is still live:
// an entry with a retired endpoint is discarded (lazy invalidation).
func (e *pmEngine) pop() (Candidate, bool) {
	top := e.heap.Pop()
	e.pops++
	return top, e.alive[top.A] && e.alive[top.B]
}

// normalized calls fn with the members of every alive set as instance
// indices, each set in ascending local order and the sets ordered by their
// smallest local member: the order of Plan.Normalize on the local plan.
// The slice is scratch, valid during the call.
func (e *pmEngine) normalized(fn func(set []int)) {
	e.first = grown(e.first, e.n)
	for q := range e.first {
		e.first[q] = -1
	}
	for id, ok := range e.alive {
		if ok {
			e.first[e.sets[id].qs.First()] = id
		}
	}
	for _, id := range e.first {
		if id >= 0 {
			e.scratch = e.appendIDs(e.scratch[:0], e.sets[id].qs)
			fn(e.scratch)
		}
	}
}

// plan materializes the alive sets as a plan in memory of its own: one
// block for all members, each set a capacity-limited slice of it.
func (e *pmEngine) plan() Plan {
	plan := make(Plan, 0, e.live)
	block := make([]int, 0, e.n)
	e.normalized(func(set []int) {
		at := len(block)
		block = append(block, set...)
		plan = append(plan, block[at:len(block):len(block)])
	})
	return plan
}

// cost returns what cost.PlanCost(e.model, sizer, e.plan()) would, summing
// the same set costs in the same order, without building the plan.
func (e *pmEngine) cost() float64 {
	total := 0.0
	e.normalized(func(set []int) {
		total += cost.SetCost(e.model, e.inst.Sizer, set)
	})
	return total
}

// solve is the merge loop: seed the heap with every positive pair delta
// the generator yields (the full triangle, or the ±k windows of ni), then
// pop the best live pair, merge it, and push the new set's deltas.
//
// Non-positive deltas can never become the best move (entries are
// immutable), so they are dropped instead of occupying heap slots. A
// budget trip during seeding leaves a partial seed: the merge loop then
// works only the pairs probed so far, which still yields a valid (if less
// merged) partition.
//
// Pruned and unpruned solves are one loop, so at k ≥ n they coincide: the
// windows cover every pair, probes run in the same smaller-id-first
// orientation (floating-point sums are order-sensitive), and the heap
// order is strict over the unique entries, so the pop sequence depends
// only on the multiset of pushes before each pop. At k < n the solve
// explores a subset of the candidates, trading a few percent of plan
// quality for the quadratic term.
func (e *pmEngine) solve(ni *NeighborIndex, k int) {
	budget := e.inst.Budget
	pairs := NewPairs(e.n, ni, k, budget)
	for a, b, ok := pairs.Next(); ok; a, b, ok = pairs.Next() {
		if d, rm := e.probe(a, b); d > 0 {
			e.heap = append(e.heap, Candidate{Profit: d, Size: rm, A: a, B: b})
		}
	}
	e.heap.Init()
	if ni != nil {
		e.startNeighbors()
	}

	for e.live > 1 && len(e.heap) > 0 {
		if !budget.Step(1) {
			break
		}
		top, ok := e.pop()
		if !ok {
			continue
		}
		id := e.merge(top)
		if ni == nil {
			e.pushSurvivors(id)
		} else {
			e.pushNeighbors(ni, k, id)
		}
	}
}

// pushSurvivors pushes the new set's deltas against every live set.
func (e *pmEngine) pushSurvivors(id int) {
	for other := 0; other < id; other++ {
		if !e.alive[other] {
			continue
		}
		if !e.inst.Budget.Step(1) {
			return
		}
		if d, rm := e.probe(other, id); d > 0 {
			e.heap.Push(Candidate{Profit: d, Size: rm, A: other, B: id})
		}
	}
}

// startNeighbors sets up the pruned solve's state. setOf maps each query
// to the id of the live set containing it, so a merged set's
// neighborhood — the sets owning queries near its members — resolves in
// O(window) without scanning all survivors. mark/epoch dedupe neighbor
// sets per merge without clearing: a set id is probed at most once per
// epoch. Ids stay below 2n−1.
func (e *pmEngine) startNeighbors() {
	n := e.n
	e.setOf = grown(e.setOf, n)
	for i := range e.setOf {
		e.setOf[i] = i
	}
	e.mark = grown(e.mark, 2*n)
	clear(e.mark)
	e.epoch = 0
}

// pushNeighbors regenerates candidates lazily from the merged set's
// neighborhood: every live set owning a query within ±k of any member.
// At k ≥ n that is every survivor, as in pushSurvivors.
func (e *pmEngine) pushNeighbors(ni *NeighborIndex, k, id int) {
	e.members = e.sets[id].qs.AppendIndices(e.members[:0])
	for _, q := range e.members {
		e.setOf[q] = id
	}
	e.epoch++
	budget := e.inst.Budget
	for _, q := range e.members {
		lo, hi := ni.window(q, k)
		for rank := lo; rank <= hi; rank++ {
			sid := e.setOf[ni.order[rank]]
			if sid == id || e.mark[sid] == e.epoch {
				continue
			}
			e.mark[sid] = e.epoch
			if !budget.Step(1) {
				break
			}
			if d, rm := e.probe(sid, id); d > 0 {
				e.heap.Push(Candidate{Profit: d, Size: rm, A: sid, B: id})
			}
		}
		if budget.Exhausted() {
			return
		}
	}
}
