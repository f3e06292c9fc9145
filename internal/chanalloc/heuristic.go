package chanalloc

// This file implements the §8.2 heuristic: the greedy pairwise initial
// distribution of Fig 14, the hill-climbing reallocation loop, and the
// strategies compared in Fig 18 (smart init, random init, best-of-both,
// and the parallel multi-start extension).
//
// Both phases run on the engine of engine.go: pairing gains and move
// probes resolve through the shared group-cost cache, the Fig 14 greedy
// selects pairs from the solver layer's candidate heap and pair generator
// (core.CandidateHeap, core.Pairs — the ones Pair Merging uses), and hill
// climbing re-evaluates only the two channels a move touches.

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"qsub/internal/core"
)

// InitialDistribution is the Fig 14 greedy: compute the pairing gain
// Cost_Δ = Cost{ca} + Cost{cb} − Cost{ca,cb} for every client pair, then
// repeatedly take the highest-gain pair, allocate both clients to the
// current channel, drop all pairs touching them, and advance the channel
// round-robin. Leftover clients are assigned round-robin.
//
// The pairs come from core.Pairs and wait in a core.CandidateHeap: each
// step pops the best pair in O(log n) and discards it if an endpoint is
// already allocated (lazy invalidation), instead of rescanning the table.
// The heap breaks ties by smaller client ids, which is the paper's table
// scan keeping the earliest maximum, so the allocation is the scan's.
// Unlike Pair Merging, every gain enters the heap and a pop never pushes:
// Fig 14 pairs clients until the table is empty regardless of sign.
//
// With Problem.Neighbors set (and instance centers available) the pairs
// are pruned to each client's ±k Z-order window over client centroids —
// O(n·k) gain probes instead of O(n²) — and the leftover round-robin pass
// guarantees a complete allocation regardless of how much the window (or
// an exhausted budget) cut away.
func InitialDistribution(p *Problem) Allocation {
	return initialDistributionCtx(p.newCtx())
}

func initialDistributionCtx(ctx *evalCtx) Allocation {
	p := ctx.p
	n := len(p.Clients)
	alloc := make(Allocation, n)
	for i := range alloc {
		alloc[i] = -1
	}
	single := make([]float64, n)
	pair := [2]int{}
	for c := range p.Clients {
		pair[0] = c
		single[c] = ctx.groupCostClients(pair[:1])
	}
	ni := p.clientIndex()
	size := n * (n - 1) / 2
	if ni != nil {
		size = n * min(p.Neighbors, n)
	}
	h := make(core.CandidateHeap, 0, size)
	pairs := core.NewPairs(n, ni, p.Neighbors, p.Inst.Budget)
	for a, b, ok := pairs.Next(); ok; a, b, ok = pairs.Next() {
		pair[0], pair[1] = a, b
		joint := ctx.groupCostClients(pair[:2])
		h = append(h, core.Candidate{Profit: single[a] + single[b] - joint, A: a, B: b})
	}
	h.Init()
	cch := 0
	for len(h) > 0 {
		e := h.Pop()
		if alloc[e.A] >= 0 || alloc[e.B] >= 0 {
			continue // lazy invalidation: an already-allocated endpoint
		}
		alloc[e.A], alloc[e.B] = cch, cch
		cch = (cch + 1) % p.Channels
	}
	for c := 0; c < n; c++ {
		if alloc[c] < 0 {
			alloc[c] = cch
			cch = (cch + 1) % p.Channels
		}
	}
	return alloc
}

// RandomDistribution assigns each client to a uniformly random channel.
func RandomDistribution(p *Problem, seed int64) Allocation {
	return randomDistribution(p, newRng(seed).Intn)
}

// randomDistribution draws one channel per client from intn, which lets
// multi-start restarts supply their own derived RNG streams.
func randomDistribution(p *Problem, intn func(int) int) Allocation {
	alloc := make(Allocation, len(p.Clients))
	for i := range alloc {
		alloc[i] = intn(p.Channels)
	}
	return alloc
}

// HillClimb improves an allocation by repeatedly moving the single client
// whose relocation to another channel reduces total cost the most,
// stopping at a local minimum (§8.2). Per-channel costs are kept in a
// table (the paper's T) so each candidate move re-evaluates only the two
// channels it touches — and those two evaluations resolve against the
// group-cost cache, so a group probed in any earlier iteration (or by any
// other allocator on the same Problem) costs a map lookup, not a merge
// solve.
func HillClimb(p *Problem, alloc Allocation) Allocation {
	return hillClimbCtx(p.newCtx(), alloc)
}

func hillClimbCtx(ctx *evalCtx, alloc Allocation) Allocation {
	p := ctx.p
	alloc = alloc.Clone()
	groups := make([][]int, p.Channels)
	for client, ch := range alloc {
		groups[ch] = append(groups[ch], client)
	}
	costs := make([]float64, p.Channels)
	empty := 0
	for ch := range groups {
		costs[ch] = ctx.groupCostClients(groups[ch])
		if len(groups[ch]) == 0 {
			empty++
		}
	}
	for {
		// One climb iteration probes O(clients·channels) moves; charge
		// the budget proportionally and return the current (complete)
		// allocation when it trips.
		if !p.Inst.Budget.Step(int64(len(alloc))) {
			return alloc
		}
		bestGain := 1e-9
		bestClient, bestTo := -1, -1
		var bestFromCost, bestToCost float64
		for client := range alloc {
			from := alloc[client]
			if len(groups[from]) == 1 && empty >= p.Channels-1 {
				// Moving a lone client between otherwise empty
				// channels is a no-op.
				continue
			}
			fromCost := ctx.groupCost(ctx.unionWithout(groups[from], client), len(groups[from])-1)
			for to := 0; to < p.Channels; to++ {
				if to == from {
					continue
				}
				toCost := ctx.groupCost(ctx.unionWith(groups[to], client), len(groups[to])+1)
				gain := (costs[from] + costs[to]) - (fromCost + toCost)
				if gain > bestGain {
					bestGain = gain
					bestClient, bestTo = client, to
					bestFromCost, bestToCost = fromCost, toCost
				}
			}
		}
		if bestClient < 0 {
			return alloc
		}
		from := alloc[bestClient]
		if len(groups[bestTo]) == 0 {
			empty--
		}
		at := slices.Index(groups[from], bestClient)
		groups[from] = slices.Delete(groups[from], at, at+1)
		groups[bestTo] = append(groups[bestTo], bestClient)
		if len(groups[from]) == 0 {
			empty++
		}
		costs[from] = bestFromCost
		costs[bestTo] = bestToCost
		alloc[bestClient] = bestTo
	}
}

// Strategy names the initial-distribution variants compared in Fig 18.
type Strategy int

const (
	// SmartInit seeds the hill climb with the Fig 14 greedy pairing.
	SmartInit Strategy = iota
	// RandomInit seeds the hill climb with a random distribution.
	RandomInit
	// BestOfBoth runs both seeds and keeps the cheaper result.
	BestOfBoth
	// MultiStartInit runs the smart seed plus seven random seeds on a
	// bounded worker pool and keeps the cheapest local minimum.
	MultiStartInit
)

// String returns the strategy name used in reports.
func (s Strategy) String() string {
	switch s {
	case SmartInit:
		return "smart-init"
	case RandomInit:
		return "random-init"
	case BestOfBoth:
		return "best-of-both"
	case MultiStartInit:
		return "multi-start"
	default:
		return "unknown"
	}
}

// parallelism resolves the Problem's worker-pool bound.
func (p *Problem) parallelism() int {
	if p.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallelism
}

// multiStartRestarts is how many climbs MultiStart runs: the smart seed
// plus seven random ones. No workload, experiment or caller needs another
// count, so it is a constant, not an option.
const multiStartRestarts = 8

// MultiStart runs multiStartRestarts hill climbs — the first from the
// Fig 14 smart distribution, the rest from independent random
// distributions — on a bounded worker pool and returns the cheapest local
// minimum.
//
// Each restart derives its RNG from (seed, restart index) via splitmix64
// and the winner is chosen by (cost, restart index), so a fixed seed
// yields the same allocation at any Parallelism — the same contract as
// core.DirectedSearch. All restarts share the Problem's group-cost
// cache, so a group probed by one restart is a lookup for every other.
func MultiStart(p *Problem, seed int64) (Allocation, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	t := multiStartRestarts
	allocs := make([]Allocation, t)
	costs := make([]float64, t)
	runOne := func(run int) {
		// Anytime mode: once the budget trips, later restarts are
		// skipped (nil allocation, +Inf cost — never the winner).
		// Restart 0 always runs, so a complete allocation is
		// guaranteed even when the budget expires immediately.
		if run > 0 && p.Inst.Budget.Exhausted() {
			costs[run] = math.Inf(1)
			return
		}
		ctx := p.newCtx()
		var start Allocation
		if run == 0 {
			start = initialDistributionCtx(ctx)
		} else {
			start = randomDistribution(p, restartRNG(seed, run).Intn)
		}
		allocs[run] = hillClimbCtx(ctx, start)
		costs[run] = costCtx(ctx, allocs[run])
	}

	workers := p.parallelism()
	if workers > t {
		workers = t
	}
	if workers <= 1 {
		for run := 0; run < t; run++ {
			runOne(run)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for run := range next {
					runOne(run)
				}
			}()
		}
		for run := 0; run < t; run++ {
			next <- run
		}
		close(next)
		wg.Wait()
	}

	// Deterministic winner: lowest cost, earliest restart on ties —
	// independent of which worker finished first.
	best := 0
	for run := 1; run < t; run++ {
		if costs[run] < costs[best] {
			best = run
		}
	}
	if am := p.Metrics; am != nil {
		am.Restarts.Add(uint64(t))
		if best == 0 {
			am.SmartWins.Inc()
		} else {
			am.RandomWins.Inc()
		}
	}
	return allocs[best], costs[best], nil
}

// Heuristic runs the §8.2 algorithm with the chosen strategy and returns
// the resulting allocation and its cost.
func Heuristic(p *Problem, s Strategy, seed int64) (Allocation, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	switch s {
	case RandomInit:
		ctx := p.newCtx()
		a := hillClimbCtx(ctx, RandomDistribution(p, seed))
		return a, costCtx(ctx, a), nil
	case BestOfBoth:
		return bestOfBoth(p, seed)
	case MultiStartInit:
		return MultiStart(p, seed)
	default: // SmartInit
		ctx := p.newCtx()
		a := hillClimbCtx(ctx, initialDistributionCtx(ctx))
		return a, costCtx(ctx, a), nil
	}
}

// bestOfBoth runs the smart-init and random-init climbs — concurrently
// when the Problem allows two workers — and keeps the cheaper result,
// preferring the smart seed on exact ties (the sequential tie rule).
func bestOfBoth(p *Problem, seed int64) (Allocation, float64, error) {
	var a1, a2 Allocation
	var c1, c2 float64
	run1 := func() {
		ctx := p.newCtx()
		a1 = hillClimbCtx(ctx, initialDistributionCtx(ctx))
		c1 = costCtx(ctx, a1)
	}
	run2 := func() {
		ctx := p.newCtx()
		a2 = hillClimbCtx(ctx, RandomDistribution(p, seed))
		c2 = costCtx(ctx, a2)
	}
	if p.parallelism() >= 2 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			run2()
		}()
		run1()
		wg.Wait()
	} else {
		run1()
		run2()
	}
	if c1 <= c2 {
		return a1, c1, nil
	}
	return a2, c2, nil
}
