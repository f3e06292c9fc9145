package core

import (
	"math/rand"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/workload"
)

// centersOf returns the bounding-rect centers the solvers use as query
// representatives.
func centersOf(rects []geom.Rect) []geom.Point {
	out := make([]geom.Point, len(rects))
	for i, r := range rects {
		out[i] = geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2)
	}
	return out
}

func randomRects(rng *rand.Rand, n int, span float64) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		x, y := rng.Float64()*span, rng.Float64()*span
		rects[i] = geom.RectWH(x, y, rng.Float64()*12+1, rng.Float64()*12+1)
	}
	return rects
}

// collectPairs drains a generator.
func collectPairs(g Pairs) [][2]int {
	var out [][2]int
	for a, b, ok := g.Next(); ok; a, b, ok = g.Next() {
		out = append(out, [2]int{a, b})
	}
	return out
}

// TestNeighborIndexWindow pins the pair generator over a curve index: the
// ±k windows yield exactly the pairs at most k ranks apart, each once as
// (a, b) with a < b, at most 2k partners per query, so at k ≥ n they are
// the full triangle's pairs; a budget stops the generator for good.
func TestNeighborIndexWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rects := randomRects(rng, 25, 100)
	ni := NewNeighborIndex(centersOf(rects))
	n := len(ni.order)
	if n != 25 {
		t.Fatalf("indexed %d queries, want 25", n)
	}
	for q := 0; q < n; q++ {
		if ni.order[ni.pos[q]] != q {
			t.Fatalf("order[pos[%d]] = %d", q, ni.order[ni.pos[q]])
		}
	}
	full := collectPairs(NewPairs(n, nil, 0, nil))
	if len(full) != n*(n-1)/2 {
		t.Fatalf("full triangle has %d pairs, want %d", len(full), n*(n-1)/2)
	}
	for i := 1; i < len(full); i++ {
		if p, q := full[i-1], full[i]; p[0] > q[0] || p[0] == q[0] && p[1] >= q[1] {
			t.Fatalf("full triangle out of order at %d: %v then %v", i, p, q)
		}
	}
	for _, k := range []int{1, 3, 25, 100} {
		got := collectPairs(NewPairs(n, ni, k, nil))
		seen := map[[2]int]bool{}
		partners := make([]int, n)
		for _, p := range got {
			a, b := p[0], p[1]
			if a >= b || seen[p] {
				t.Fatalf("k=%d: pair %v repeated or not ascending", k, p)
			}
			if d := ni.pos[a] - ni.pos[b]; d > k || d < -k {
				t.Fatalf("k=%d: pair %v is %d ranks apart", k, p, d)
			}
			seen[p] = true
			partners[a]++
			partners[b]++
		}
		want := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if d := ni.pos[a] - ni.pos[b]; d <= k && d >= -k {
					want++
				}
			}
			if partners[a] > 2*k {
				t.Fatalf("k=%d: query %d has %d partners", k, a, partners[a])
			}
		}
		if len(got) != want {
			t.Fatalf("k=%d: %d pairs, the window holds %d", k, len(got), want)
		}
		if k >= n && len(got) != len(full) {
			t.Fatalf("k=%d: %d window pairs, the full triangle has %d", k, len(got), len(full))
		}
	}
	g := NewPairs(n, ni, 3, NewBudget(0, 7))
	if got := collectPairs(g); len(got) != 6 {
		t.Fatalf("a 7-step budget yielded %d pairs, want 6", len(got))
	}
}

// TestNeighborIndexDuplicateCentersDeterministic pins the tiebreak:
// identical centers order by query index, so pruned plans stay
// deterministic on workloads with duplicate subscriptions.
func TestNeighborIndexDuplicateCentersDeterministic(t *testing.T) {
	centers := []geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(1, 1)}
	ni := NewNeighborIndex(centers)
	for q := 1; q < 3; q++ {
		if ni.pos[q] != ni.pos[q-1]+1 {
			t.Fatalf("duplicate centers not index-ordered: ranks %d=%d %d=%d",
				q-1, ni.pos[q-1], q, ni.pos[q])
		}
	}
}

// TestPairMergeNeighborsMatchesFullTable is the exactness property the
// pruned engine is pinned to: with k ≥ n the ±k window covers every
// other query, the candidate multiset equals the full table's, and the
// strict heap total order makes the pruned solver reproduce the full
// solver's plan exactly — across random workloads and random models.
func TestPairMergeNeighborsMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		model := cost.Model{
			KM: rng.Float64() * 400,
			KT: rng.Float64()*3 + 0.1,
			KU: rng.Float64(),
		}
		rects := randomRects(rng, n, 80)
		inst := geomInstance(model, rects)
		inst.Centers = centersOf(rects)
		full := PairMerge{}.Solve(inst)
		pruned := PairMerge{Neighbors: n + rng.Intn(3)}.Solve(inst)
		if !pruned.IsPartition(n) {
			t.Fatalf("trial %d: pruned plan %v not a partition", trial, pruned)
		}
		if !pruned.Equal(full) {
			t.Fatalf("trial %d (n=%d): pruned %v != full %v", trial, n, pruned, full)
		}
	}
}

// TestPairMergeNeighborsQualityOnPaperWorkload bounds the price of
// pruning on the clustered Fig 13/14-style workload: a k=8 window must
// keep the plan within 10%% of the exact full-table cost.
func TestPairMergeNeighborsQualityOnPaperWorkload(t *testing.T) {
	model := cost.DefaultModel()
	est := relation.Uniform{Density: 0.05, BytesPerTuple: 32}
	for _, seed := range []int64{1, 2, 3} {
		wcfg := workload.DefaultConfig()
		wcfg.Seed = seed
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		qs := gen.Queries(150)
		inst := NewGeomInstance(model, qs, query.BoundingRect{}, est)
		exact := inst.Cost(PairMerge{}.Solve(inst))
		pruned := PairMerge{Neighbors: 8}.Solve(inst)
		if !pruned.IsPartition(inst.N) {
			t.Fatalf("seed %d: pruned plan not a partition", seed)
		}
		got := inst.Cost(pruned)
		if got > 1.1*exact+1e-9 {
			t.Fatalf("seed %d: pruned cost %g > 1.1x exact %g", seed, got, exact)
		}
	}
}

func TestBudgetSteps(t *testing.T) {
	var nilB *Budget
	if !nilB.Step(100) {
		t.Fatal("nil budget must never exhaust")
	}
	if nilB.Exhausted() || !nilB.Converged() {
		t.Fatal("nil budget reports exhausted")
	}
	if NewBudget(0, 0) != nil {
		t.Fatal("no-limit budget should be nil")
	}
	b := NewBudget(0, 5)
	for i := 0; i < 4; i++ {
		if !b.Step(1) {
			t.Fatalf("step %d exhausted early", i)
		}
	}
	if b.Step(1) {
		t.Fatal("step 5 should exhaust a 5-step budget")
	}
	if b.Step(1) {
		t.Fatal("exhaustion must be sticky")
	}
	if !b.Exhausted() || b.Converged() {
		t.Fatal("exhausted flags inconsistent")
	}
	if b.Steps() < 5 {
		t.Fatalf("Steps = %d, want >= 5", b.Steps())
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(time.Nanosecond, 0)
	time.Sleep(2 * time.Millisecond)
	// The deadline is only polled on stride boundaries, so it must trip
	// within a few strides of steps.
	tripped := false
	for i := 0; i < 4096 && !tripped; i++ {
		tripped = !b.Step(1)
	}
	if !tripped || !b.Exhausted() {
		t.Fatal("expired deadline never tripped the budget")
	}
}

// TestSolversValidUnderExhaustedBudget is the anytime contract: a budget
// that expires immediately (or mid-solve) still yields a valid partition
// no worse than not merging, for every budget-aware solver.
func TestSolversValidUnderExhaustedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rects := randomRects(rng, 30, 60)
	centers := centersOf(rects)
	algos := []Algorithm{
		PairMerge{},
		PairMerge{Neighbors: 4},
		DirectedSearch{T: 4, Seed: 1},
		Clustering{},
	}
	for _, maxSteps := range []int64{1, 7, 100} {
		for _, algo := range algos {
			inst := geomInstance(paperModel, rects)
			inst.Centers = centers
			inst.Budget = NewBudget(0, maxSteps)
			plan := algo.Solve(inst)
			if !plan.IsPartition(inst.N) {
				t.Fatalf("%s with %d-step budget: plan %v not a partition", algo.Name(), maxSteps, plan)
			}
			if c := inst.Cost(plan); c > inst.InitialCost()+1e-6 {
				t.Fatalf("%s with %d-step budget: cost %g worse than initial %g",
					algo.Name(), maxSteps, c, inst.InitialCost())
			}
		}
	}
}

// Converged is the solver-result reading of the flag: true when the
// solve ran to natural completion (no limit tripped), false when the
// returned plan is a best-so-far cut short by the budget.
func (b *Budget) Converged() bool { return !b.Exhausted() }

// Steps returns the work units recorded so far.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}
