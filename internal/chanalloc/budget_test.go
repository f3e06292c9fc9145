package chanalloc

import (
	"math/rand"
	"testing"

	"qsub/internal/core"
	"qsub/internal/geom"
)

// randomRectProblem builds an allocation problem over random rectangles
// with clients subscribing one to three of them.
func randomRectProblem(rng *rand.Rand, nQueries, nClients, channels int) *Problem {
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
	return newProblem(testModel, rects, clients, channels)
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

// TestHeuristicBudgetExhaustedStillAllocates is the anytime contract on
// the allocation side: an immediately-exhausted budget still yields a
// complete, valid channel assignment.
func TestHeuristicBudgetExhaustedStillAllocates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2; trial++ {
		p := randomRectProblem(rng, 15, 6, 3)
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
