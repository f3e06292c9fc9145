package chanalloc

import (
	"math/rand"
	"testing"

	"qsub/internal/core"
	"qsub/internal/geom"
)

// twinProblems builds two identical allocation problems over one random
// workload, differing only in the Neighbors setting, so pruned and
// full-table runs can be compared head to head. (A copied Problem would
// share the original's lazily built client index and group cache.)
func twinProblems(rng *rand.Rand, nQueries, nClients, channels, neighbors int) (full, pruned *Problem) {
	rects := make([]geom.Rect, nQueries)
	for i := range rects {
		x, y := rng.Float64()*80, rng.Float64()*80
		rects[i] = geom.RectWH(x, y, rng.Float64()*15+1, rng.Float64()*15+1)
	}
	clients := make([][]int, nClients)
	for c := range clients {
		k := 1 + rng.Intn(3)
		for i := 0; i < k; i++ {
			clients[c] = append(clients[c], rng.Intn(nQueries))
		}
	}
	full = newProblem(testModel, rects, clients, channels)
	pruned = newProblem(testModel, rects, clients, channels)
	pruned.Neighbors = neighbors
	return full, pruned
}

// TestHeuristicNeighborsMatchesFullTableWhenKCoversAll pins the Fig. 14
// seeding equivalence: with k at least the client count, the pruned
// pair generator sees every client pair and the heuristic reproduces
// the full-table allocation and cost exactly.
func TestHeuristicNeighborsMatchesFullTableWhenKCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		nClients := 3 + rng.Intn(5)
		full, pruned := twinProblems(rng, 12, nClients, 3, nClients+rng.Intn(3))
		for _, strat := range []Strategy{SmartInit, BestOfBoth} {
			a1, c1, err := Heuristic(full, strat, 7)
			if err != nil {
				t.Fatal(err)
			}
			a2, c2, err := Heuristic(pruned, strat, 7)
			if err != nil {
				t.Fatal(err)
			}
			if c1 != c2 {
				t.Fatalf("trial %d %s: pruned cost %g != full cost %g", trial, strat, c2, c1)
			}
			for ci := range a1 {
				if a1[ci] != a2[ci] {
					t.Fatalf("trial %d %s: allocations differ at client %d: %v vs %v",
						trial, strat, ci, a1, a2)
				}
			}
		}
	}
}

// checkAllocation asserts the allocation is complete and in range.
func checkAllocation(t *testing.T, p *Problem, a Allocation) {
	t.Helper()
	if len(a) != len(p.Clients) {
		t.Fatalf("allocation covers %d of %d clients", len(a), len(p.Clients))
	}
	for ci, ch := range a {
		if ch < 0 || ch >= p.Channels {
			t.Fatalf("client %d on invalid channel %d", ci, ch)
		}
	}
}

// TestHeuristicNeighborsPrunedStillValid checks the small-k regime: the
// allocation must stay complete and its cost bounded by the no-merge
// baseline even when the window misses most pairs.
func TestHeuristicNeighborsPrunedStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	full, pruned := twinProblems(rng, 20, 8, 3, 2)
	alloc, total, err := Heuristic(pruned, SmartInit, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, pruned, alloc)
	noMerge := &Problem{Inst: full.Inst, Clients: full.Clients, Channels: full.Channels, Merger: core.NoMerge{}}
	if baseline := Cost(noMerge, alloc); total > baseline+1e-6 {
		t.Fatalf("pruned cost %g worse than no-merge baseline %g", total, baseline)
	}
}

// TestHeuristicBudgetExhaustedStillAllocates is the anytime contract on
// the allocation side: an immediately-exhausted budget still yields a
// complete, valid channel assignment.
func TestHeuristicBudgetExhaustedStillAllocates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, neighbors := range []int{0, 3} {
		_, p := twinProblems(rng, 15, 6, 3, neighbors)
		p.Inst.Budget = core.NewBudget(0, 1)
		alloc, _, err := Heuristic(p, BestOfBoth, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkAllocation(t, p, alloc)
		if !p.Inst.Budget.Exhausted() {
			t.Fatal("1-step budget should be exhausted")
		}
	}
}
