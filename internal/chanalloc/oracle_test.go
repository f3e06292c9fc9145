package chanalloc

// Reference implementations the allocation engine is pinned against. They
// are the §8.2 heuristic as the paper states it, before the engine: every
// channel cost comes from the public ChannelCost (a fresh merge solve,
// nothing cached), and the Fig 14 greedy rescans its whole pair table for
// the first strictly greater gain at every step.

import (
	"math"
	"slices"
)

// uncachedCost returns the merged cost of a client group, solved afresh.
func uncachedCost(p *Problem, clients []int) float64 {
	c, _ := ChannelCost(p, clients)
	return c
}

// uncachedTotal is Cost without the group-cost cache: channel costs summed
// in channel order.
func uncachedTotal(p *Problem, a Allocation) float64 {
	groups := make([][]int, p.Channels)
	for client, ch := range a {
		groups[ch] = append(groups[ch], client)
	}
	total := 0.0
	for _, g := range groups {
		total += uncachedCost(p, g)
	}
	return total
}

// scanInitialDistribution is the Fig 14 loop: the gain of every client
// pair in (a, b) order, then repeatedly the first strictly greatest pair,
// both clients onto the current channel, every pair touching them
// dropped, the channel advanced round-robin; leftovers round-robin.
func scanInitialDistribution(p *Problem) Allocation {
	n := len(p.Clients)
	alloc := make(Allocation, n)
	for i := range alloc {
		alloc[i] = -1
	}
	single := make([]float64, n)
	for c := range p.Clients {
		single[c] = uncachedCost(p, []int{c})
	}
	type triple struct {
		a, b int
		gain float64
	}
	var pairs []triple
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, triple{a, b, single[a] + single[b] - uncachedCost(p, []int{a, b})})
		}
	}
	cch := 0
	for len(pairs) > 0 {
		bestIdx := 0
		for i, t := range pairs {
			if t.gain > pairs[bestIdx].gain {
				bestIdx = i
			}
		}
		t := pairs[bestIdx]
		alloc[t.a], alloc[t.b] = cch, cch
		cch = (cch + 1) % p.Channels
		kept := pairs[:0]
		for _, u := range pairs {
			if u.a != t.a && u.a != t.b && u.b != t.a && u.b != t.b {
				kept = append(kept, u)
			}
		}
		pairs = kept
	}
	for c := 0; c < n; c++ {
		if alloc[c] < 0 {
			alloc[c] = cch
			cch = (cch + 1) % p.Channels
		}
	}
	return alloc
}

// oracleClimb is the §8.2 hill climb with every candidate move priced by
// two fresh channel solves: move the client whose relocation saves the
// most (first strictly greater, clients then channels in order) until no
// move saves more than 1e-9.
func oracleClimb(p *Problem, start Allocation) Allocation {
	alloc := start.Clone()
	groups := make([][]int, p.Channels)
	for client, ch := range alloc {
		groups[ch] = append(groups[ch], client)
	}
	costs := make([]float64, p.Channels)
	empty := 0
	for ch, g := range groups {
		costs[ch] = uncachedCost(p, g)
		if len(g) == 0 {
			empty++
		}
	}
	for {
		bestGain := 1e-9
		bestClient, bestTo := -1, -1
		var bestFromCost, bestToCost float64
		for client := range alloc {
			from := alloc[client]
			if len(groups[from]) == 1 && empty >= p.Channels-1 {
				continue // a lone client between otherwise empty channels
			}
			without := slices.DeleteFunc(slices.Clone(groups[from]), func(c int) bool { return c == client })
			fromCost := uncachedCost(p, without)
			for to := 0; to < p.Channels; to++ {
				if to == from {
					continue
				}
				toCost := uncachedCost(p, append(slices.Clone(groups[to]), client))
				if gain := (costs[from] + costs[to]) - (fromCost + toCost); gain > bestGain {
					bestGain, bestClient, bestTo = gain, client, to
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
		groups[from] = slices.DeleteFunc(groups[from], func(c int) bool { return c == bestClient })
		groups[bestTo] = append(groups[bestTo], bestClient)
		if len(groups[from]) == 0 {
			empty++
		}
		costs[from], costs[bestTo] = bestFromCost, bestToCost
		alloc[bestClient] = bestTo
	}
}

// oracleHeuristic composes the strategies of Fig 18 from the oracles,
// sequentially: the smart seed wins exact ties in BestOfBoth, and the
// earliest restart wins them in MultiStart.
func oracleHeuristic(p *Problem, s Strategy, seed int64) (Allocation, float64) {
	climb := func(start Allocation) (Allocation, float64) {
		a := oracleClimb(p, start)
		return a, uncachedTotal(p, a)
	}
	switch s {
	case RandomInit:
		return climb(RandomDistribution(p, seed))
	case BestOfBoth:
		a1, c1 := climb(scanInitialDistribution(p))
		a2, c2 := climb(RandomDistribution(p, seed))
		if c1 <= c2 {
			return a1, c1
		}
		return a2, c2
	case MultiStartInit:
		best, bestCost := Allocation(nil), math.Inf(1)
		for run := 0; run < multiStartRestarts; run++ {
			var start Allocation
			if run == 0 {
				start = scanInitialDistribution(p)
			} else {
				start = randomDistribution(p, restartRNG(seed, run).Intn)
			}
			if a, c := climb(start); c < bestCost {
				best, bestCost = a, c
			}
		}
		return best, bestCost
	default: // SmartInit
		return climb(scanInitialDistribution(p))
	}
}
