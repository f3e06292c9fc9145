package core

import (
	"sync"

	"qsub/internal/cost"
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
// The default engine keeps the pair deltas in an indexed max-heap with
// lazy invalidation: popping the top yields the best live pair in
// O(log n), entries referencing merged-away sets are discarded as they
// surface, and a merge pushes only the new set's deltas against the
// survivors. One iteration is O(n log n) instead of the O(n²) Profit
// Table scan, and probe unions run through a reused scratch buffer
// instead of allocating a fresh []int per delta.
//
// Setting Neighbors > 0 on an instance with Centers switches to the
// neighbor-pruned engine: the heap is seeded only with pairs inside each
// query's ±k Z-order window (see NeighborIndex), and a merge regenerates
// candidates from the merged set's neighborhood instead of against every
// survivor. Candidate generation drops from O(n²) to O(n·k); at k ≥ n
// the window covers every pair and the engine produces bit-identical
// plans to the full heap, which the equivalence tests pin.
//
// Two ablation engines are kept for the benchmarks: TableScan is the
// previous implementation (Profit Table with a full scan per iteration),
// NaiveRecompute additionally recomputes every delta on every iteration.
// The heap engines run on pooled working state (pmEngine), so a solve
// allocates its result and nothing else.
//
// All engines honor Instance.Budget: when it trips they stop generating
// candidates, finish nothing speculative, and return the (always valid)
// partition reached so far.
type PairMerge struct {
	// NaiveRecompute recomputes every pair delta on every iteration
	// instead of maintaining the Profit Table (ablation).
	NaiveRecompute bool
	// TableScan keeps the Profit Table but selects the best pair with a
	// full O(n²) scan per iteration (ablation; the pre-heap engine).
	TableScan bool
	// Neighbors, when positive, restricts candidate pairs to each
	// query's ±Neighbors Z-order window. Requires Instance.Centers;
	// without centers the full heap engine runs. 0 means exact
	// (unpruned). Ignored by the table ablation engines.
	Neighbors int
}

// Name returns "pair-merge".
func (PairMerge) Name() string { return "pair-merge" }

// Solve runs the greedy pair merging loop.
func (pm PairMerge) Solve(inst *Instance) Plan {
	if inst.N == 0 {
		return Plan{}
	}
	if pm.NaiveRecompute || pm.TableScan {
		return pm.solveTable(inst)
	}
	e := pm.run(inst)
	defer e.release()
	return e.plan()
}

// SolveCost returns inst.Cost(pm.Solve(inst)), to the bit, without
// building the plan: what channel allocation asks of a merger hundreds of
// times per plan.
func (pm PairMerge) SolveCost(inst *Instance) float64 {
	if inst.N == 0 {
		return 0
	}
	if pm.NaiveRecompute || pm.TableScan {
		return inst.Cost(pm.solveTable(inst))
	}
	e := pm.run(inst)
	defer e.release()
	return e.cost()
}

// run solves the instance on a pooled engine, which the caller releases.
func (pm PairMerge) run(inst *Instance) *pmEngine {
	e := startEngine(inst)
	// The pruned engine deliberately takes the instance's sizer as-is
	// (no forced memo wrap): wrapping only one engine could let a
	// bitset-keyed cache return a value computed from a different
	// member ordering than the raw path would use, breaking the
	// bit-identity pin against solveHeap for order-sensitive sizers.
	if pm.Neighbors > 0 && len(inst.Centers) == inst.N {
		e.solveNeighbors(pm.Neighbors)
	} else {
		e.solveHeap()
	}
	return e
}

// pmEntry is one candidate merge in the profit heap: the Δ-cost and
// merged size of merging set ids a and b. Entries are immutable;
// invalidation is lazy (an entry whose endpoint has since been merged
// away is discarded when popped).
type pmEntry struct {
	d    float64
	rm   float64
	a, b int
}

// pmLess orders the heap: larger Δ first, ties broken by smaller set ids
// so the pop order — and therefore the plan — is deterministic.
func pmLess(x, y pmEntry) bool {
	if x.d != y.d {
		return x.d > y.d
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// pmHeapInit heapifies the backing slice in place.
func pmHeapInit(h []pmEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		pmSiftDown(h, i)
	}
}

// pmHeapPush appends the entry and restores the heap invariant.
func pmHeapPush(h *[]pmEntry, e pmEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pmLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pmHeapPop removes and returns the top entry.
func pmHeapPop(h *[]pmEntry) pmEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	pmSiftDown(s[:last], 0)
	return top
}

func pmSiftDown(h []pmEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && pmLess(h[l], h[best]) {
			best = l
		}
		if r < len(h) && pmLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// hSet is one set during the heap-driven merge: its member bitset, member
// count and cached merged size. Sets are identified by a stable id (index
// into the sets slice); merging two sets retires both ids and appends a
// new one, which is what makes stale heap entries detectable.
type hSet struct {
	qs     QSet
	count  int
	merged float64
}

// pmEngine is the working state of one heap-driven merge — the sets, their
// alive flags, the candidate heap, one []uint64 backing every set's
// bitset, and the scratch buffers — kept in a pool between solves: channel
// allocation solves hundreds of small instances per plan, and allocating
// this state afresh for each was most of a plan's garbage. What a solve
// returns (plan or cost) never aliases the engine's memory.
type pmEngine struct {
	inst  *Instance
	sets  []hSet
	alive []bool
	live  int // number of alive sets
	heap  []pmEntry
	words []uint64 // bitset of set id is words[id*w : (id+1)*w], w words per set
	w     int

	scratch []int // probe unions; member lists in plan and cost
	first   []int // plan and cost: first[q] is the alive set whose smallest member is q, or -1

	// Neighbor-pruned engine only: the live set owning each query, the
	// per-merge dedupe marks (see solveNeighbors) and the merged set's
	// members.
	setOf, mark, members []int

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

// startEngine takes an engine from the pool and sets it up with the instance's
// singletons. The caller hands it back with release.
func startEngine(inst *Instance) *pmEngine {
	e := pmEngines.Get().(*pmEngine)
	n := inst.N
	e.inst, e.live, e.w = inst, n, cost.QSetWords(n)
	e.pops, e.merges, e.probes = 0, 0, 0
	// A solve creates at most n-1 merged sets on top of the n singletons.
	e.words = grown(e.words, 2*n*e.w)
	clear(e.words[:n*e.w])
	e.sets = grown(e.sets, 2*n)[:n]
	e.alive = grown(e.alive, 2*n)[:n]
	for i := range e.sets {
		qs := e.qset(i)
		qs.Add(i)
		e.sets[i] = hSet{qs: qs, count: 1, merged: inst.Sizer.Size(i)}
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
	e.inst = nil
	pmEngines.Put(e)
}

func (e *pmEngine) qset(id int) QSet { return e.words[id*e.w : (id+1)*e.w : (id+1)*e.w] }

// probe computes the Δ-cost and merged size of merging sets a and b. The
// member sets are disjoint, so the union's indices are the two index
// lists concatenated into the reused scratch buffer; Sizer
// implementations must not retain the slice (none do).
func (e *pmEngine) probe(a, b int) (d, rm float64) {
	sa, sb := &e.sets[a], &e.sets[b]
	e.scratch = sa.qs.AppendIndices(e.scratch[:0])
	e.scratch = sb.qs.AppendIndices(e.scratch)
	e.probes++
	rm = e.inst.Sizer.MergedSize(e.scratch)
	return cost.PairDelta(e.inst.Model, sa.count, sa.merged, sb.count, sb.merged, rm), rm
}

// merge retires both endpoints of the popped entry and appends their
// union as a new set, whose id it returns.
func (e *pmEngine) merge(top pmEntry) int {
	e.merges++
	id := len(e.sets)
	qs := e.qset(id)
	copy(qs, e.sets[top.a].qs)
	qs.Or(e.sets[top.b].qs)
	e.sets = append(e.sets, hSet{qs: qs, count: e.sets[top.a].count + e.sets[top.b].count, merged: top.rm})
	e.alive[top.a], e.alive[top.b] = false, false
	e.alive = append(e.alive, true)
	e.live--
	return id
}

// pop removes the best candidate and reports whether it is still live:
// an entry with a retired endpoint is discarded (lazy invalidation).
func (e *pmEngine) pop() (pmEntry, bool) {
	top := pmHeapPop(&e.heap)
	e.pops++
	return top, e.alive[top.a] && e.alive[top.b]
}

// normalized calls fn with the members of every alive set, each in
// ascending order and the sets ordered by their smallest member: the
// order of Plan.Normalize. The slice is scratch, valid during the call.
func (e *pmEngine) normalized(fn func(set []int)) {
	e.first = grown(e.first, e.inst.N)
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
			e.scratch = e.sets[id].qs.AppendIndices(e.scratch[:0])
			fn(e.scratch)
		}
	}
}

// plan materializes the alive sets as a normalized plan in memory of its
// own: one block for all members, each set a capacity-limited slice of it.
func (e *pmEngine) plan() Plan {
	plan := make(Plan, 0, e.live)
	block := make([]int, 0, e.inst.N)
	e.normalized(func(set []int) {
		at := len(block)
		block = append(block, set...)
		plan = append(plan, block[at:len(block):len(block)])
	})
	return plan
}

// cost returns what Instance.Cost(e.plan()) would, summing the same set
// costs in the same order, without building the plan.
func (e *pmEngine) cost() float64 {
	total := 0.0
	e.normalized(func(set []int) {
		total += cost.SetCost(e.inst.Model, e.inst.Sizer, set)
	})
	return total
}

// solveHeap is the default engine: an indexed max-heap over pair deltas
// with lazy invalidation.
func (e *pmEngine) solveHeap() {
	n, budget := e.inst.N, e.inst.Budget

	// Seed the heap with every positive pair delta. Non-positive deltas
	// can never become the best move (entries are immutable), so they are
	// dropped here instead of occupying heap slots. A budget trip leaves
	// a partial seed: the merge loop then works only the pairs probed so
	// far, which still yields a valid (if less merged) partition.
seed:
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !budget.Step(1) {
				break seed
			}
			if d, rm := e.probe(i, j); d > 0 {
				e.heap = append(e.heap, pmEntry{d: d, rm: rm, a: i, b: j})
			}
		}
	}
	pmHeapInit(e.heap)

	for e.live > 1 && len(e.heap) > 0 {
		if !budget.Step(1) {
			break
		}
		top, ok := e.pop()
		if !ok {
			continue
		}
		// Push the new set's deltas against every survivor.
		id := e.merge(top)
		for other := 0; other < id; other++ {
			if !e.alive[other] {
				continue
			}
			if !budget.Step(1) {
				break
			}
			if d, rm := e.probe(other, id); d > 0 {
				pmHeapPush(&e.heap, pmEntry{d: d, rm: rm, a: other, b: id})
			}
		}
	}
}

// solveNeighbors is the neighbor-pruned engine: identical merge loop to
// solveHeap, but candidate pairs come from the ±k Z-order windows of a
// NeighborIndex over Instance.Centers instead of full enumeration —
// O(n·k) seed probes and O(|merged|·k) regeneration probes per merge
// instead of O(n²) and O(n).
//
// Equivalence at k ≥ n: the window relation covers every pair, probes
// run in the same smaller-id-first orientation (floating-point sums are
// order-sensitive), and pmLess is a strict total order over the unique
// entries, so the heap's pop sequence depends only on the multiset of
// pushes before each pop — which matches the full engine's exactly.
// At k < n the engine explores a subset of the full engine's candidates,
// trading a few percent of plan quality for the quadratic term.
func (e *pmEngine) solveNeighbors(k int) {
	n, budget := e.inst.N, e.inst.Budget
	ni := NewNeighborIndex(e.inst.Centers)

	// setOf maps each query to the id of the live set containing it, so
	// a merged set's neighborhood — the sets owning queries near its
	// members — resolves in O(window) without scanning all survivors.
	e.setOf = grown(e.setOf, n)
	for i := range e.setOf {
		e.setOf[i] = i
	}

	// Seed with each query's ±k curve window. The window relation is
	// symmetric, so keeping only j > i covers each unordered pair once;
	// at k ≥ n this enumerates exactly the full engine's i<j pairs.
seed:
	for i := 0; i < n; i++ {
		p := ni.pos[i]
		for rank := max(p-k, 0); rank <= min(p+k, n-1); rank++ {
			j := ni.order[rank]
			if j <= i {
				continue
			}
			if !budget.Step(1) {
				break seed
			}
			if d, rm := e.probe(i, j); d > 0 {
				e.heap = append(e.heap, pmEntry{d: d, rm: rm, a: i, b: j})
			}
		}
	}
	pmHeapInit(e.heap)

	// mark/epoch dedupe neighbor sets per merge without clearing: a set
	// id is probed at most once per epoch. Ids stay below 2n−1.
	e.mark = grown(e.mark, 2*n)
	clear(e.mark)
	epoch := 0
	for e.live > 1 && len(e.heap) > 0 {
		if !budget.Step(1) {
			break
		}
		top, ok := e.pop()
		if !ok {
			continue
		}
		id := e.merge(top)
		e.members = e.sets[id].qs.AppendIndices(e.members[:0])
		for _, q := range e.members {
			e.setOf[q] = id
		}
		// Regenerate candidates lazily from the merged set's
		// neighborhood: every live set owning a query within ±k of any
		// member. At k ≥ n that is every survivor, as in solveHeap.
		epoch++
		for _, q := range e.members {
			p := ni.pos[q]
			for rank := max(p-k, 0); rank <= min(p+k, n-1); rank++ {
				sid := e.setOf[ni.order[rank]]
				if sid == id || e.mark[sid] == epoch {
					continue
				}
				e.mark[sid] = epoch
				if !budget.Step(1) {
					break
				}
				if d, rm := e.probe(sid, id); d > 0 {
					pmHeapPush(&e.heap, pmEntry{d: d, rm: rm, a: sid, b: id})
				}
			}
			if budget.Exhausted() {
				break
			}
		}
	}
}

// pmSet is one live set during the table-driven merge along with its
// cached merged size.
type pmSet struct {
	queries []int
	merged  float64
}

// solveTable is the Profit Table ablation engine: pair deltas cached in a
// triangular table (unless NaiveRecompute), best pair found by a full
// scan each iteration.
func (pm PairMerge) solveTable(inst *Instance) Plan {
	n := inst.N
	sets := make([]*pmSet, n)
	for i := 0; i < n; i++ {
		sets[i] = &pmSet{queries: []int{i}, merged: inst.Sizer.Size(i)}
	}

	delta := func(a, b *pmSet) (float64, []int) {
		union := make([]int, 0, len(a.queries)+len(b.queries))
		union = append(union, a.queries...)
		union = append(union, b.queries...)
		rm := inst.Sizer.MergedSize(union)
		d := inst.Model.KM +
			inst.Model.KT*(a.merged+b.merged-rm) +
			inst.Model.KU*(float64(len(a.queries))*a.merged+float64(len(b.queries))*b.merged-float64(len(union))*rm)
		return d, union
	}

	// profit[i][j] (i < j) caches Δ-cost of merging sets i and j; valid
	// bits are invalidated when either endpoint changes.
	type entry struct {
		d     float64
		union []int
		valid bool
	}
	profit := make([][]entry, len(sets))
	for i := range profit {
		profit[i] = make([]entry, len(sets))
	}

	for len(sets) > 1 {
		// One iteration scans up to len(sets)² pairs; charge the budget
		// proportionally so deadlines trip between iterations.
		if !inst.Budget.Step(int64(len(sets))) {
			break
		}
		bestI, bestJ := -1, -1
		bestD := 0.0
		var bestUnion []int
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				var d float64
				var union []int
				if !pm.NaiveRecompute && profit[i][j].valid {
					d, union = profit[i][j].d, profit[i][j].union
				} else {
					d, union = delta(sets[i], sets[j])
					if !pm.NaiveRecompute {
						profit[i][j] = entry{d: d, union: union, valid: true}
					}
				}
				if d > bestD {
					bestD, bestI, bestJ, bestUnion = d, i, j, union
				}
			}
		}
		if bestI < 0 {
			break // no positive entry in the profit table
		}
		// Replace set bestI with the union, drop set bestJ by moving
		// the last set into its slot, and invalidate affected entries.
		sets[bestI] = &pmSet{queries: bestUnion, merged: inst.Sizer.MergedSize(bestUnion)}
		last := len(sets) - 1
		sets[bestJ] = sets[last]
		sets = sets[:last]
		if !pm.NaiveRecompute {
			for k := 0; k < len(sets); k++ {
				// Entries touching the merged slot bestI are stale.
				lo, hi := min(k, bestI), max(k, bestI)
				profit[lo][hi].valid = false
				// Entries touching slot bestJ now describe the
				// moved set, so they are stale too.
				if bestJ < len(sets) {
					lo, hi = min(k, bestJ), max(k, bestJ)
					profit[lo][hi].valid = false
				}
				// Entries that referred to the moved set at its
				// old position (last) are out of range now.
			}
		}
	}

	plan := make(Plan, len(sets))
	for i, s := range sets {
		plan[i] = s.queries
	}
	return plan.Normalize()
}
