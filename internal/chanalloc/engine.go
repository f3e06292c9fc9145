package chanalloc

// This file is the channel-allocation engine substrate: a group-cost
// cache (the chanalloc analogue of cost.Memo) plus evaluation contexts
// with reusable scratch buffers.
//
// A channel's cost depends only on (the union of its clients' query
// sets, the number of listening clients): the query union determines the
// merging sub-instance and the listener count the per-merged-query
// K_6 filtering charge. Keying the cache by (query bitset, listener
// count) therefore lets InitialDistribution, HillClimb, the exhaustive
// Fig 13 search and the multi-start restarts all share one cache — the
// same subset re-probed by any of them costs one map lookup instead of a
// full merge solve. The cache lives on the Problem (built lazily), so
// the Fig 18/19 drivers, which run the exhaustive optimum and all three
// heuristic strategies over the same Problem, share it too.
//
// Every allocator runs its climbs one after the other on the calling
// goroutine, so the cache is a plain map pair with no lock: a Problem is
// used from one goroutine (see Problem).

import (
	"slices"

	"qsub/internal/core"
	"qsub/internal/cost"
)

// groupKey identifies a client group by its listener count and, on
// instances of at most 64 queries, its one bitset word; past that by the
// hash of its words, which the entries filed under the key then tell
// apart (groupEntry).
type groupKey struct {
	word  uint64
	count int
}

// groupEntry is one cached group of a multi-word instance: its own copy
// of the bitset words and its cost.
type groupEntry struct {
	words cost.QSet
	v     float64
}

// groupCache memoizes per-channel merged costs: small on instances of one
// bitset word, large past that. A lookup allocates nothing, whatever the
// instance's size. It is not safe for concurrent use.
type groupCache struct {
	words int
	small map[groupKey]float64
	large map[groupKey][]groupEntry
}

func newGroupCache(words int) *groupCache {
	if words == 1 {
		return &groupCache{words: words, small: make(map[groupKey]float64)}
	}
	return &groupCache{words: words, large: make(map[groupKey][]groupEntry)}
}

// key returns the key a group is filed under.
func (gc *groupCache) key(qs cost.QSet, count int) groupKey {
	if gc.words == 1 {
		return groupKey{word: qs[0], count: count}
	}
	return groupKey{word: qs.Hash(), count: count}
}

func (gc *groupCache) get(qs cost.QSet, count int) (float64, bool) {
	k := gc.key(qs, count)
	if gc.words == 1 {
		v, ok := gc.small[k]
		return v, ok
	}
	for _, e := range gc.large[k] {
		if slices.Equal(e.words, qs) {
			return e.v, true
		}
	}
	return 0, false
}

// put files a group the cache does not hold yet.
func (gc *groupCache) put(qs cost.QSet, count int, v float64) {
	k := gc.key(qs, count)
	if gc.words == 1 {
		gc.small[k] = v
		return
	}
	gc.large[k] = append(gc.large[k], groupEntry{words: slices.Clone(qs), v: v})
}

// engine holds the per-Problem solver state: one client-query bitset per
// client and the shared group-cost cache. It is built lazily on first
// use and assumes the Problem is not mutated afterwards.
type engine struct {
	qsets []cost.QSet // per-client subscribed-query bitsets
	cache *groupCache
}

// engine returns the Problem's lazily built engine state.
func (p *Problem) engine() *engine {
	if p.eng != nil {
		return p.eng
	}
	eng := &engine{qsets: make([]cost.QSet, len(p.Clients))}
	for c, qs := range p.Clients {
		s := cost.NewQSet(p.Inst.N)
		for _, q := range qs {
			s.Add(q)
		}
		eng.qsets[c] = s
	}
	eng.cache = newGroupCache(cost.QSetWords(p.Inst.N))
	p.eng = eng
	return eng
}

// evalCtx is one climb's evaluation context: a pointer to the shared
// engine plus private scratch buffers, so group-cost probes allocate
// nothing on the steady path.
type evalCtx struct {
	p       *Problem
	eng     *engine
	union   cost.QSet // scratch union bitset
	members []int     // scratch decoded query indices
}

func (p *Problem) newCtx() *evalCtx {
	eng := p.engine()
	return &evalCtx{
		p:       p,
		eng:     eng,
		union:   cost.NewQSet(p.Inst.N),
		members: make([]int, 0, p.Inst.N),
	}
}

// unionOf stages the query union of the given clients into the scratch
// bitset and returns it. The result is valid until the next unionOf /
// unionWithout call on this context.
func (ctx *evalCtx) unionOf(clients []int) cost.QSet {
	ctx.union.Reset()
	for _, c := range clients {
		ctx.union.Or(ctx.eng.qsets[c])
	}
	return ctx.union
}

// unionWithout stages the query union of the clients minus one member.
// Queries can be shared between clients, so removal must re-union the
// survivors rather than clear the dropped client's bits.
func (ctx *evalCtx) unionWithout(clients []int, drop int) cost.QSet {
	ctx.union.Reset()
	for _, c := range clients {
		if c != drop {
			ctx.union.Or(ctx.eng.qsets[c])
		}
	}
	return ctx.union
}

// unionWith stages the query union of the clients plus one extra member.
func (ctx *evalCtx) unionWith(clients []int, add int) cost.QSet {
	ctx.union.Reset()
	for _, c := range clients {
		ctx.union.Or(ctx.eng.qsets[c])
	}
	ctx.union.Or(ctx.eng.qsets[add])
	return ctx.union
}

// groupCost returns the merged channel cost of a group described by its
// query union and listener count, consulting the shared cache first. The
// qs argument may be (and usually is) the context's scratch bitset; it is
// not retained.
func (ctx *evalCtx) groupCost(qs cost.QSet, listeners int) float64 {
	if qs.Empty() {
		return 0
	}
	if v, ok := ctx.eng.cache.get(qs, listeners); ok {
		if am := ctx.p.Metrics; am != nil {
			am.GroupCacheHits.Inc()
		}
		return v
	}
	if am := ctx.p.Metrics; am != nil {
		am.GroupCacheMisses.Inc()
	}
	ctx.members = qs.AppendIndices(ctx.members[:0])
	v := solveGroupCost(ctx.p, ctx.members, listeners)
	ctx.eng.cache.put(qs, listeners, v)
	return v
}

// groupCostClients is groupCost over an explicit client list.
func (ctx *evalCtx) groupCostClients(clients []int) float64 {
	return ctx.groupCost(ctx.unionOf(clients), len(clients))
}

// solveGroupCost runs the merging algorithm over the (deduplicated,
// ascending) query indices of one channel and returns its cost: the
// merged plan cost under the per-listener filtering model plus the K_D
// channel maintenance charge. This is the cost half of ChannelCost; the
// plan is not materialized, and Pair Merging solves the group in place.
func solveGroupCost(p *Problem, members []int, listeners int) float64 {
	if len(members) == 0 {
		return 0
	}
	model := channelModel(p.Inst.Model, listeners)
	merger := p.merger()
	if pm, ok := merger.(core.PairMerge); ok {
		return pm.GroupCost(p.Inst, members, model) + p.Inst.Model.KD
	}
	sub := p.Inst.Sub(members)
	sub.Model = model
	return sub.Cost(merger.Solve(sub)) + p.Inst.Model.KD
}
