// Package chanalloc implements the channel allocation problem of §7-§8:
// given clients with query subscriptions and a fixed number of multicast
// channels, assign each client to exactly one channel so that the total
// cost of merging and disseminating the per-channel query sets is
// minimized. Merging and allocation interact (§7.2 shows they cannot be
// decided separately), so every candidate allocation re-runs the merging
// algorithm on each channel's queries.
//
// The package provides the exhaustive tree search of Fig 13 and the §8.2
// heuristic: a greedy pairwise initial distribution (Fig 14) followed by
// hill climbing that moves one client at a time, plus the random-start,
// best-of-both and parallel multi-start variants evaluated in Fig 18.
//
// All allocators run on a shared engine (see engine.go): client groups
// are cost.QSet bitsets, per-channel merged costs are memoized in one
// group-cost cache keyed by (query union, listener count), the
// Fig 14 greedy selects pairs through the candidate heap and pair
// generator of internal/core (the ones Pair Merging uses), and hill
// climbing evaluates a move by recomputing only the two touched channels
// against cached group costs. The paper's table scan and the uncached
// cost path live on only as oracles in the tests.
package chanalloc

import (
	"fmt"
	"math/rand"
	"sort"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
)

// AllocMetrics bundles the nil-safe instrument handles the allocators
// report into. Every field may be nil; a nil *AllocMetrics disables
// allocator instrumentation at the cost of one branch per site.
type AllocMetrics struct {
	// Restarts counts MultiStart restarts executed.
	Restarts *metrics.Counter
	// GroupCacheHits / GroupCacheMisses track the shared group-cost
	// cache; a miss means a full per-channel merge solve ran.
	GroupCacheHits   *metrics.Counter
	GroupCacheMisses *metrics.Counter
}

// Problem is one channel allocation instance. Clients are sets of query
// indices into the merging instance; Channels is the number of physical
// multicast channels; Merger is the merging algorithm run per channel
// (the paper uses Pair Merging so larger query counts stay feasible,
// §9.4).
//
// A Problem carries a lazily built group-cost cache shared by every
// allocator run over it (the Fig 18/19 drivers run the exhaustive
// optimum and all heuristic strategies on one Problem). Treat a Problem
// as immutable once any allocator has run: changing Inst, Clients or
// Merger afterwards would leave stale cached costs behind.
//
// A Problem is used from one goroutine: the allocators run their climbs
// one after the other on the caller's goroutine, and the cache they
// share takes no lock. Allocate concurrently over separate Problems.
type Problem struct {
	Inst     *core.Instance
	Clients  [][]int
	Channels int
	Merger   core.Algorithm

	// Neighbors, when positive, restricts the Fig 14 greedy's candidate
	// pairs to each client's ±Neighbors window on a Z-order curve over
	// client centroids (the mean of Inst.Centers over the client's
	// queries). Requires Inst.Centers; without centers the full pair
	// table is used. At Neighbors ≥ len(Clients) the window covers every
	// pair, reproducing the exact greedy. When Merger is nil, the
	// default per-channel PairMerge inherits the value too.
	Neighbors int

	// Metrics optionally instruments the allocators; nil runs
	// uninstrumented. Set before the first allocator call.
	Metrics *AllocMetrics

	eng      *engine
	clientNI *core.NeighborIndex
}

// clientIndex returns the Z-order neighbor index over client centroids
// (mean of the instance centers of each client's queries), built lazily
// on first use. It returns nil — disabling pruning — when Neighbors is
// off, the instance has no centers, or there are no clients.
func (p *Problem) clientIndex() *core.NeighborIndex {
	if p.Neighbors <= 0 || len(p.Inst.Centers) != p.Inst.N || len(p.Clients) == 0 {
		return nil
	}
	if p.clientNI != nil {
		return p.clientNI
	}
	centers := make([]geom.Point, len(p.Clients))
	for c, qs := range p.Clients {
		var sum geom.Point
		for _, q := range qs {
			sum.X += p.Inst.Centers[q].X
			sum.Y += p.Inst.Centers[q].Y
		}
		if len(qs) > 0 {
			centers[c] = geom.Point{X: sum.X / float64(len(qs)), Y: sum.Y / float64(len(qs))}
		}
	}
	p.clientNI = core.NewNeighborIndex(centers)
	return p.clientNI
}

// Validate reports whether the problem is well-formed.
func (p *Problem) Validate() error {
	if p.Inst == nil {
		return fmt.Errorf("chanalloc: nil merging instance")
	}
	if p.Channels < 1 {
		return fmt.Errorf("chanalloc: need at least one channel, got %d", p.Channels)
	}
	if len(p.Clients) == 0 {
		return fmt.Errorf("chanalloc: no clients")
	}
	for c, qs := range p.Clients {
		for _, q := range qs {
			if q < 0 || q >= p.Inst.N {
				return fmt.Errorf("chanalloc: client %d subscribes to unknown query %d", c, q)
			}
		}
	}
	return nil
}

func (p *Problem) merger() core.Algorithm {
	if p.Merger == nil {
		return core.PairMerge{Neighbors: p.Neighbors}
	}
	return p.Merger
}

// Allocation maps each client (by index) to a channel in [0, Channels).
type Allocation []int

// Clone returns a copy of the allocation.
func (a Allocation) Clone() Allocation { return append(Allocation(nil), a...) }

// channelQueries returns the deduplicated, sorted query set subscribed by
// the given clients.
func channelQueries(p *Problem, clients []int) []int {
	seen := map[int]bool{}
	var qs []int
	for _, c := range clients {
		for _, q := range p.Clients[c] {
			if !seen[q] {
				seen[q] = true
				qs = append(qs, q)
			}
		}
	}
	sort.Ints(qs)
	return qs
}

// ChannelCost merges the queries of the given clients with the problem's
// merging algorithm and returns the resulting cost, including the K_D
// per-channel maintenance charge when the channel is non-empty, and the
// plan in the instance's query indices.
func ChannelCost(p *Problem, clients []int) (float64, core.Plan) {
	qs := channelQueries(p, clients)
	if len(qs) == 0 {
		return 0, nil
	}
	model, merger := channelModel(p.Inst.Model, len(clients)), p.merger()
	var plan core.Plan
	if pm, ok := merger.(core.PairMerge); ok {
		plan = pm.GroupPlan(p.Inst, qs, model)
	} else {
		sub := p.Inst.Sub(qs)
		sub.Model = model
		local := merger.Solve(sub)
		plan = make(core.Plan, len(local))
		for i, set := range local {
			plan[i] = make([]int, len(set))
			for j, q := range set {
				plan[i][j] = qs[q]
			}
		}
	}
	return cost.PlanCost(model, p.Inst.Sizer, plan) + p.Inst.Model.KD, plan
}

// channelModel is the cost model of a channel with the given number of
// listeners: the per-merged-query constant is K_M + K_6·listeners, because
// clients only filter the messages of the channel they listen to, which is
// what couples channel allocation to merging (§7.2).
func channelModel(m cost.Model, listeners int) cost.Model {
	m.KM += m.K6 * float64(listeners)
	return m
}

// MaxChannelKM is the largest K_M of a channel model on an instance under
// model with the given number of clients, each channel having one to all
// of them as listeners: what the instance's CacheSizes must admit for the
// allocator's group solves.
func MaxChannelKM(model cost.Model, clients int) float64 {
	return max(channelModel(model, 1).KM, channelModel(model, clients).KM)
}

// Cost returns the total cost of an allocation: the sum over channels of
// the merged cost of that channel's client queries. Group costs come
// from the Problem's shared cache, so re-evaluating allocations that
// reuse already-probed channel groups is a map lookup per channel.
func Cost(p *Problem, a Allocation) float64 {
	return costCtx(p.newCtx(), a)
}

// costCtx is Cost over a caller-owned evaluation context.
func costCtx(ctx *evalCtx, a Allocation) float64 {
	p := ctx.p
	groups := make([][]int, p.Channels)
	for client, ch := range a {
		groups[ch] = append(groups[ch], client)
	}
	total := 0.0
	for _, g := range groups {
		total += ctx.groupCostClients(g)
	}
	return total
}

// Plans returns the per-channel merge plans of an allocation, indexed by
// channel. Channels with no clients have nil plans.
func Plans(p *Problem, a Allocation) []core.Plan {
	groups := make([][]int, p.Channels)
	for client, ch := range a {
		groups[ch] = append(groups[ch], client)
	}
	out := make([]core.Plan, p.Channels)
	for ch, g := range groups {
		if len(g) > 0 {
			_, out[ch] = ChannelCost(p, g)
		}
	}
	return out
}

// Exhaustive enumerates every assignment of clients to at most Channels
// indistinguishable channels (the search tree of Fig 13) and returns the
// cheapest allocation. The number of cases is the sum of Stirling
// partition numbers, so this is only feasible for small client counts —
// it serves as the optimal baseline of the Fig 18/19 experiments.
//
// Leaf costs are evaluated against the Problem's group-cost cache:
// neighboring leaves share most of their channel groups, so the vast
// majority of per-channel merge solves collapse into cache hits (and the
// cache is then warm for the heuristics run on the same Problem).
func Exhaustive(p *Problem) (Allocation, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	ctx := p.newCtx()
	n := len(p.Clients)
	assign := make([]int, n)
	groups := make([][]int, p.Channels)
	best := make(Allocation, n)
	bestCost := -1.0
	var rec func(i, blocks int)
	rec = func(i, blocks int) {
		if i == n {
			c := 0.0
			for _, g := range groups[:blocks] {
				c += ctx.groupCostClients(g)
			}
			if bestCost < 0 || c < bestCost {
				bestCost = c
				copy(best, assign)
			}
			return
		}
		for b := 0; b < blocks; b++ {
			assign[i] = b
			groups[b] = append(groups[b], i)
			rec(i+1, blocks)
			groups[b] = groups[b][:len(groups[b])-1]
		}
		if blocks < p.Channels {
			assign[i] = blocks
			groups[blocks] = append(groups[blocks], i)
			rec(i+1, blocks+1)
			groups[blocks] = groups[blocks][:len(groups[blocks])-1]
		}
	}
	rec(0, 0)
	return best, bestCost, nil
}

// rng returns a deterministic random source for the given seed.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// restartRNG derives an independent deterministic RNG for one multi-start
// restart: splitmix64 over (seed, run) decorrelates the streams so
// neighboring restarts do not explore correlated distributions (the same
// derivation core.DirectedSearch uses for its restarts).
func restartRNG(seed int64, run int) *rand.Rand {
	z := uint64(seed) + uint64(run+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}
