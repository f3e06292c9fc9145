package chanalloc

// This file is the channel-allocation engine substrate: a sharded,
// concurrency-safe group-cost cache (the chanalloc analogue of cost.Memo)
// plus per-goroutine evaluation contexts with reusable scratch buffers.
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

import (
	"sync"

	"qsub/internal/core"
	"qsub/internal/cost"
)

// cacheShards is the number of independently locked cache segments,
// mirroring cost.Memo: a small power of two so the shard pick is a mask.
const cacheShards = 16

// smallKey identifies a client group on instances of at most 64 queries:
// the single bitset word plus the listener count.
type smallKey struct {
	word  uint64
	count int
}

// largeKey is the multi-word fallback: the bitset words encoded as a
// string (see cost.Memo's large path) plus the listener count.
type largeKey struct {
	words string
	count int
}

// groupCache memoizes per-channel merged costs behind sharded
// mutex-guarded maps, safe for the parallel multi-start workers. Two
// goroutines racing on the same uncached group may both solve it, which
// is harmless: the merging algorithms are deterministic, so both compute
// the same value.
type groupCache struct {
	words  int
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu    sync.RWMutex
	small map[smallKey]float64
	large map[largeKey]float64
}

func newGroupCache(words int) *groupCache {
	gc := &groupCache{words: words}
	for s := range gc.shards {
		if words == 1 {
			gc.shards[s].small = make(map[smallKey]float64)
		} else {
			gc.shards[s].large = make(map[largeKey]float64)
		}
	}
	return gc
}

// shardOf picks the shard for a group, mixing the listener count into the
// bitset hash so groups differing only in listeners still spread.
func (gc *groupCache) shardOf(qs cost.QSet, count int) *cacheShard {
	return &gc.shards[(qs.Hash()+uint64(count)*0x9E3779B97F4A7C15)&(cacheShards-1)]
}

func (gc *groupCache) get(qs cost.QSet, count int) (float64, bool) {
	sh := gc.shardOf(qs, count)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if gc.words == 1 {
		v, ok := sh.small[smallKey{word: qs[0], count: count}]
		return v, ok
	}
	v, ok := sh.large[largeKey{words: qsetString(qs), count: count}]
	return v, ok
}

func (gc *groupCache) put(qs cost.QSet, count int, v float64) {
	sh := gc.shardOf(qs, count)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if gc.words == 1 {
		sh.small[smallKey{word: qs[0], count: count}] = v
		return
	}
	sh.large[largeKey{words: qsetString(qs), count: count}] = v
}

// qsetString encodes the bitset words as a map-hashable string key.
func qsetString(qs cost.QSet) string {
	buf := make([]byte, 8*len(qs))
	for wi, w := range qs {
		for b := 0; b < 8; b++ {
			buf[8*wi+b] = byte(w >> uint(8*b))
		}
	}
	return string(buf)
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
	p.engOnce.Do(func() {
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
	})
	return p.eng
}

// evalCtx is one goroutine's evaluation context: a pointer to the shared
// engine plus private scratch buffers, so group-cost probes allocate
// nothing on the steady path. Each multi-start worker owns one.
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
	model := channelModel(p, listeners)
	merger := p.merger()
	if pm, ok := merger.(core.PairMerge); ok {
		return pm.GroupCost(p.Inst, members, model) + p.Inst.Model.KD
	}
	sub := p.Inst.Sub(members)
	sub.Model = model
	return sub.Cost(merger.Solve(sub)) + p.Inst.Model.KD
}
