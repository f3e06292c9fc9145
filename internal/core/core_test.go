package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
)

// geomInstance builds a merging instance over axis-aligned rectangles with
// size = area (uniform density 1) and mrg = bounding rectangle, the Fig 5a
// procedure the paper's evaluation uses.
func geomInstance(model cost.Model, rects []geom.Rect) *Instance {
	return &Instance{
		N:     len(rects),
		Model: model,
		Sizer: cost.Func{
			SizeFn: func(i int) float64 { return rects[i].Area() },
			MergedFn: func(set []int) float64 {
				out := geom.EmptyRect()
				for _, q := range set {
					out = out.Union(rects[q])
				}
				return out.Area()
			},
		},
		Overlap: func(i, j int) float64 { return rects[i].Intersection(rects[j]).Area() },
	}
}

// fig6Instance is the 3-query example of §5.1/Appendix 1 realized
// geometrically: a 2×2 grid of unit cells with q1 = top row, q2 = right
// column, q3 = bottom-left cell. Under uniform density, size(q1) =
// size(q2) = 2S, size(q3) = S and every merge has size 4S.
func fig6Instance(model cost.Model) *Instance {
	rects := []geom.Rect{
		geom.R(0, 1, 2, 2), // q1: top row, area 2
		geom.R(1, 0, 2, 2), // q2: right column, area 2
		geom.R(0, 0, 1, 1), // q3: bottom-left cell, area 1
	}
	return geomInstance(model, rects)
}

func randomInstance(rng *rand.Rand, n int, model cost.Model) *Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		x, y := rng.Float64()*80, rng.Float64()*80
		rects[i] = geom.RectWH(x, y, rng.Float64()*15+1, rng.Float64()*15+1)
	}
	return geomInstance(model, rects)
}

var paperModel = cost.Model{KM: 10, KT: 9, KU: 4}

func TestFig6SizesMatchPaper(t *testing.T) {
	inst := fig6Instance(paperModel)
	if s := inst.Sizer.Size(0); s != 2 {
		t.Fatalf("size(q1) = %g, want 2", s)
	}
	if s := inst.Sizer.Size(2); s != 1 {
		t.Fatalf("size(q3) = %g, want 1", s)
	}
	for _, set := range [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}} {
		if s := inst.Sizer.MergedSize(set); s != 4 {
			t.Fatalf("MergedSize(%v) = %g, want 4", set, s)
		}
	}
}

func TestPartitionFindsMergeAllOnFig6(t *testing.T) {
	inst := fig6Instance(paperModel)
	plan := Partition{}.Solve(inst)
	want := Plan{{0, 1, 2}}
	if !plan.Equal(want) {
		t.Fatalf("Partition plan = %v, want %v (cost %g vs %g)",
			plan, want, inst.Cost(plan), inst.Cost(want))
	}
}

func TestPairMergeTrappedOnFig6(t *testing.T) {
	// §5.1 constructs Fig 6 precisely so that local pair decisions fail:
	// no pair is beneficial, so the greedy algorithm must stop at the
	// all-singletons plan even though merging all three wins.
	inst := fig6Instance(paperModel)
	plan := PairMerge{}.Solve(inst)
	if !plan.Equal(Singletons(3)) {
		t.Fatalf("PairMerge plan = %v, want singletons", plan)
	}
	opt := inst.Cost(Plan{{0, 1, 2}})
	if got := inst.Cost(plan); got <= opt {
		t.Fatalf("greedy cost %g should exceed optimal %g", got, opt)
	}
}

func TestExhaustiveMatchesPartitionTinyInstances(t *testing.T) {
	// Single-allocation property (§6.1.1): the overlapping-allocation
	// exhaustive search never beats the partition optimum under the §4
	// model.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3) // 2..4
		inst := randomInstance(rng, n, paperModel)
		exh := Exhaustive{}.Solve(inst)
		part := Partition{}.Solve(inst)
		ce, cp := inst.Cost(exh), inst.Cost(part)
		if math.Abs(ce-cp) > 1e-9 {
			t.Fatalf("n=%d: exhaustive cost %g != partition cost %g (%v vs %v)",
				n, ce, cp, exh, part)
		}
	}
}

func TestExhaustivePanicsOnLargeInstance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exhaustive should refuse instances beyond MaxN")
		}
	}()
	Exhaustive{}.Solve(randomInstance(rand.New(rand.NewSource(1)), 6, paperModel))
}

func TestPartitionMatchesBruteForceSmall(t *testing.T) {
	// Cross-check the tree enumeration against an independent
	// restricted-growth-string enumeration of partitions.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(5) // 2..6
		inst := randomInstance(rng, n, paperModel)
		want := math.Inf(1)
		enumeratePartitions(n, func(p Plan) {
			if c := inst.Cost(p); c < want {
				want = c
			}
		})
		got := inst.Cost(Partition{}.Solve(inst))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d: partition cost %g, brute force %g", n, got, want)
		}
	}
}

// enumeratePartitions visits every partition of 0..n-1 via restricted
// growth strings.
func enumeratePartitions(n int, visit func(Plan)) {
	assign := make([]int, n)
	var rec func(i, maxBucket int)
	rec = func(i, maxBucket int) {
		if i == n {
			plan := make(Plan, maxBucket)
			for q, b := range assign {
				plan[b] = append(plan[b], q)
			}
			visit(plan)
			return
		}
		for b := 0; b <= maxBucket; b++ {
			assign[i] = b
			next := maxBucket
			if b == maxBucket {
				next++
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
}

func TestPartitionPruningMatchesNoPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(rng, 6, paperModel)
		a := inst.Cost(Partition{}.Solve(inst))
		b := inst.Cost(Partition{DisablePrune: true}.Solve(inst))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("pruned cost %g != unpruned cost %g", a, b)
		}
	}
}

func TestPartitionMemoMatchesNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inst := randomInstance(rng, 7, paperModel)
	a := inst.Cost(Partition{}.Solve(inst))
	b := inst.Cost(Partition{DisableMemo: true}.Solve(inst))
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("memo cost %g != no-memo cost %g", a, b)
	}
}

func TestHeuristicsBoundedByOptimalAndInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	algos := []Algorithm{
		PairMerge{},
		profitTable{naive: true},
		DirectedSearch{T: 4, Seed: 1},
		Clustering{},
		Clustering{ExactThreshold: 6},
	}
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6) // 3..8
		inst := randomInstance(rng, n, paperModel)
		optimal := inst.Cost(Partition{}.Solve(inst))
		initial := inst.InitialCost()
		for _, a := range algos {
			plan := a.Solve(inst)
			if !plan.IsPartition(n) {
				t.Fatalf("%s produced a non-partition plan %v", a.Name(), plan)
			}
			c := inst.Cost(plan)
			if c < optimal-1e-9 {
				t.Fatalf("%s cost %g beats the optimum %g — optimum is wrong", a.Name(), c, optimal)
			}
			if c > initial+1e-9 {
				t.Fatalf("%s cost %g exceeds the no-merging cost %g", a.Name(), c, initial)
			}
		}
	}
}

func TestPairMergeProfitTableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		inst := randomInstance(rng, n, paperModel)
		a := inst.Cost(PairMerge{}.Solve(inst))
		b := inst.Cost(profitTable{naive: true}.Solve(inst))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("heap cost %g != naive profit-table cost %g", a, b)
		}
	}
}

func TestPairMergeMergesIdenticalQueries(t *testing.T) {
	// n identical queries must collapse into one set: the n-fold
	// duplicate scenario of §1.
	rects := make([]geom.Rect, 5)
	for i := range rects {
		rects[i] = geom.R(10, 10, 20, 20)
	}
	inst := geomInstance(cost.Model{KM: 1, KT: 1, KU: 1}, rects)
	plan := PairMerge{}.Solve(inst)
	if len(plan) != 1 || len(plan[0]) != 5 {
		t.Fatalf("identical queries should merge into one set, got %v", plan)
	}
}

func TestPairMergeRespectsTwoQueryRule(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		inst := randomInstance(rng, 2, paperModel)
		s1, s2 := inst.Sizer.Size(0), inst.Sizer.Size(1)
		s3 := inst.Sizer.MergedSize([]int{0, 1})
		plan := PairMerge{}.Solve(inst)
		merged := len(plan) == 1
		if want := cost.ShouldMergePair(paperModel, s1, s2, s3); merged != want {
			t.Fatalf("2-query decision mismatch: merged=%t want=%t (s1=%g s2=%g s3=%g)",
				merged, want, s1, s2, s3)
		}
	}
}

func TestDirectedSearchDeterministicPerSeed(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(18)), 8, paperModel)
	a := DirectedSearch{T: 5, Seed: 42}.Solve(inst)
	b := DirectedSearch{T: 5, Seed: 42}.Solve(inst)
	if !a.Equal(b) {
		t.Fatal("same seed should give the same plan")
	}
}

func TestDirectedSearchEscapesFig6Trap(t *testing.T) {
	// With extract moves and restarts the directed search can reach the
	// merge-all optimum that pure pair merging misses... as long as one
	// of its random starts lands in the right basin. We give it enough
	// restarts to make this deterministic for the fixed seed.
	inst := fig6Instance(paperModel)
	plan := DirectedSearch{T: 32, Seed: 7}.Solve(inst)
	if got, want := inst.Cost(plan), inst.Cost(Plan{{0, 1, 2}}); got > want {
		t.Fatalf("directed search cost %g, want optimum %g (plan %v)", got, want, plan)
	}
}

func TestClusteringSeparatesFarApartGroups(t *testing.T) {
	// Two tight groups far apart: no cross-group pair can ever pay off,
	// so every merged set must stay within one group.
	rects := []geom.Rect{
		geom.R(0, 0, 2, 2), geom.R(1, 1, 3, 3), geom.R(0, 1, 2, 3),
		geom.R(1000, 1000, 1002, 1002), geom.R(1001, 1001, 1003, 1003),
	}
	inst := geomInstance(cost.Model{KM: 10, KT: 1, KU: 1}, rects)
	plan := Clustering{}.Solve(inst)
	for _, set := range plan {
		hasNear, hasFar := false, false
		for _, q := range set {
			if q < 3 {
				hasNear = true
			} else {
				hasFar = true
			}
		}
		if hasNear && hasFar {
			t.Fatalf("cluster pruning failed: set %v mixes far-apart groups", set)
		}
	}
}

func TestClusteringBoundPrunesThreeWayTrap(t *testing.T) {
	// The §6.3 eligibility bound reasons about pairs only, so it cannot
	// see gains that require three or more queries: in the Fig 6 trap
	// the pairs (q1,q3) and (q2,q3) can never pay for themselves alone
	// (the bound requires K_M > 5·K_U while "no pair beneficial"
	// requires K_M < 4·K_U), so clustering separates q3 and misses the
	// merge-all optimum. This is inherent to the heuristic, not a bug;
	// the test documents the behaviour.
	rects := []geom.Rect{
		geom.R(0, 1, 2, 2), geom.R(1, 0, 2, 2), geom.R(0, 0, 1, 1), // Fig 6 trap
		geom.R(500, 500, 501, 501), // lone far query
	}
	inst := geomInstance(paperModel, rects)
	plan := Clustering{ExactThreshold: 8}.Solve(inst)
	if !plan.IsPartition(4) {
		t.Fatalf("plan %v is not a partition", plan)
	}
	for _, set := range plan {
		for _, q := range set {
			if q == 3 && len(set) > 1 {
				t.Fatalf("far query grouped with near queries: %v", plan)
			}
			if q == 2 && len(set) > 1 {
				t.Fatalf("pairwise bound should have pruned q3 from any group: %v", plan)
			}
		}
	}
	// Cost stays within the heuristic envelope.
	if c := inst.Cost(plan); c > inst.InitialCost()+1e-9 {
		t.Fatalf("clustering cost %g exceeds initial %g", c, inst.InitialCost())
	}
}

func TestClusteringExactThresholdFindsInClusterOptimum(t *testing.T) {
	// Three heavily-overlapping queries whose best plan merges all
	// three: the eligibility graph connects them, the cluster is solved
	// exactly, and the result matches the global Partition optimum.
	rects := []geom.Rect{
		geom.R(0, 0, 10, 10), geom.R(1, 1, 11, 11), geom.R(2, 2, 12, 12),
		geom.R(900, 900, 901, 901),
	}
	inst := geomInstance(cost.Model{KM: 50, KT: 1, KU: 1}, rects)
	plan := Clustering{ExactThreshold: 8}.Solve(inst)
	want := Partition{}.Solve(inst)
	if got, opt := inst.Cost(plan), inst.Cost(want); math.Abs(got-opt) > 1e-9 {
		t.Fatalf("clustering+exact cost %g, optimum %g (plans %v vs %v)", got, opt, plan, want)
	}
}

// TestSetCoverReduction encodes the §5.2 reduction: L = {{1,2},{2,3},{1}}
// over C = {1,2,3}, K_M = K_U = 0, K_T = 1, size 1 for sets in L and a
// huge penalty otherwise. The optimal plan must be a minimum set cover of
// size 2 using only sets from L.
func TestSetCoverReduction(t *testing.T) {
	// Queries 0,1,2 stand for elements 1,2,3.
	inL := func(set []int) bool {
		key := 0
		for _, q := range set {
			key |= 1 << uint(q)
		}
		switch key {
		case 1<<0 | 1<<1: // {1,2}
			return true
		case 1<<1 | 1<<2: // {2,3}
			return true
		case 1 << 0: // {1}
			return true
		}
		return false
	}
	const penalty = 1e12
	inst := &Instance{
		N:     3,
		Model: cost.Model{KM: 0, KT: 1, KU: 0},
		Sizer: cost.Func{
			SizeFn: func(i int) float64 {
				if inL([]int{i}) {
					return 1
				}
				return penalty
			},
			MergedFn: func(set []int) float64 {
				if inL(set) {
					return 1
				}
				return penalty
			},
		},
	}
	// The gadget's size function is not monotone, so pruning must be
	// off (see Partition.DisablePrune).
	plan := Partition{DisablePrune: true, DisableMemo: true}.Solve(inst)
	if got := inst.Cost(plan); got != 2 {
		t.Fatalf("optimal cover cost = %g, want 2 (plan %v)", got, plan)
	}
	for _, set := range plan {
		if !inL(set) {
			t.Fatalf("plan %v uses set %v outside L", plan, set)
		}
	}
	if !plan.IsPartition(3) {
		t.Fatalf("plan %v is not a partition", plan)
	}
}

func TestCountPartitions(t *testing.T) {
	cases := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 5, 6: 203, 12: 4213597}
	for n, want := range cases {
		if got := CountPartitions(n); got != want {
			t.Errorf("B(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPerformanceMetric(t *testing.T) {
	if got := Performance(100, 60, 60); got != 0 {
		t.Fatalf("optimal heuristic should score 0, got %g", got)
	}
	if got := Performance(100, 60, 100); got != 1 {
		t.Fatalf("no-merging heuristic should score 1, got %g", got)
	}
	if got := Performance(100, 60, 80); got != 0.5 {
		t.Fatalf("midpoint should score 0.5, got %g", got)
	}
	if got := Performance(50, 50, 50); got != 0 {
		t.Fatalf("degenerate case should score 0, got %g", got)
	}
}

func TestPlanHelpers(t *testing.T) {
	p := Plan{{2, 0}, {1}}
	if !p.IsPartition(3) {
		t.Fatal("valid partition rejected")
	}
	if (Plan{{0}, {0}}).IsPartition(1) {
		t.Fatal("duplicate allocation accepted")
	}
	if (Plan{{0}}).IsPartition(2) {
		t.Fatal("incomplete cover accepted")
	}
	q := p.Clone()
	q[0][0] = 99
	if p[0][0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
	a := Plan{{1}, {0, 2}}
	b := Plan{{2, 0}, {1}}
	if !a.Equal(b) {
		t.Fatal("equivalent plans should compare equal")
	}
	if a.Equal(Plan{{0, 1, 2}}) {
		t.Fatal("different plans should not compare equal")
	}
}

func TestIncrementalAddMatchesValidPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	model := paperModel
	// Start from 5 queries, add 3 more one at a time.
	rects := make([]geom.Rect, 0, 8)
	for i := 0; i < 8; i++ {
		x, y := rng.Float64()*50, rng.Float64()*50
		rects = append(rects, geom.RectWH(x, y, rng.Float64()*10+1, rng.Float64()*10+1))
	}
	instAll := geomInstance(model, rects)
	inst5 := geomInstance(model, rects[:5])
	inst5.N = 5
	start := PairMerge{}.Solve(inst5)
	inc := NewIncremental(instAll, start)
	for q := 5; q < 8; q++ {
		inc.Add(q)
		if !inc.Plan().IsPartition(q + 1) {
			t.Fatalf("after Add(%d): plan %v is not a partition", q, inc.Plan())
		}
	}
	// The incremental plan must not be worse than no merging at all.
	if inc.Cost() > instAll.InitialCost()+1e-9 {
		t.Fatalf("incremental cost %g exceeds initial cost %g", inc.Cost(), instAll.InitialCost())
	}
}

func TestIncrementalRemove(t *testing.T) {
	inst := fig6Instance(paperModel)
	inc := NewIncremental(inst, Plan{{0, 1, 2}})
	if !inc.Remove(1) {
		t.Fatal("Remove should find query 1")
	}
	plan := inc.Plan()
	seen := map[int]bool{}
	for _, set := range plan {
		for _, q := range set {
			if q == 1 {
				t.Fatalf("query 1 still present in %v", plan)
			}
			seen[q] = true
		}
	}
	if !seen[0] || !seen[2] {
		t.Fatalf("queries 0 and 2 must survive, plan %v", plan)
	}
	if inc.Remove(99) {
		t.Fatal("Remove of unknown query should report false")
	}
}

func TestIncrementalTracksFullRemerge(t *testing.T) {
	// Adding queries one by one should stay close to a full PairMerge
	// re-run: never worse than 2× the full-re-merge improvement.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 5; trial++ {
		n := 10
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Float64()*40, rng.Float64()*40
			rects[i] = geom.RectWH(x, y, rng.Float64()*10+1, rng.Float64()*10+1)
		}
		inst := geomInstance(paperModel, rects)
		inc := NewIncremental(inst, Plan{})
		for q := 0; q < n; q++ {
			inc.Add(q)
		}
		full := inst.Cost(PairMerge{}.Solve(inst))
		initial := inst.InitialCost()
		incCost := inc.Cost()
		if incCost > initial+1e-9 {
			t.Fatalf("incremental cost %g exceeds initial %g", incCost, initial)
		}
		// Guard against pathological regressions: the incremental
		// plan keeps at least half of the full re-merge's savings.
		if initial-full > 1e-9 && (initial-incCost) < 0.5*(initial-full) {
			t.Fatalf("incremental saves %g, full re-merge saves %g",
				initial-incCost, initial-full)
		}
	}
}

func TestExplain(t *testing.T) {
	inst := fig6Instance(paperModel)
	out := inst.Explain(Plan{{0, 1, 2}})
	for _, want := range []string{"merged size", "irrelevant", "total: 74"} {
		if !containsStr(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Empty sets are skipped without panicking.
	_ = inst.Explain(Plan{{}, {0}, {1, 2}})
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// TestIncrementalChurnQualityVsRemerge pins the §11 maintenance quality
// bound under mixed arrivals and departures: after every churn batch the
// incremental plan must (a) remain a valid partition of the active
// queries, (b) never cost more than answering them separately, and
// (c) retain at least half of the savings a full PairMerge re-merge over
// the active set achieves.
func TestIncrementalChurnQualityVsRemerge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const total, live = 60, 40
	rects := make([]geom.Rect, total)
	for i := range rects {
		// Three clusters so merging has real savings to preserve.
		cx, cy := float64(i%3)*60, float64(i%3)*60
		rects[i] = geom.RectWH(cx+rng.Float64()*30, cy+rng.Float64()*30,
			rng.Float64()*12+2, rng.Float64()*12+2)
	}
	inst := geomInstance(paperModel, rects)

	active := map[int]bool{}
	inc := NewIncremental(inst, Plan{})
	for q := 0; q < live; q++ {
		inc.Add(q)
		active[q] = true
	}
	next := live

	checkAgainstRemerge := func(batch int) {
		plan := inc.Plan()
		seen := map[int]bool{}
		for _, set := range plan {
			for _, q := range set {
				if !active[q] {
					t.Fatalf("batch %d: plan contains inactive query %d", batch, q)
				}
				if seen[q] {
					t.Fatalf("batch %d: query %d appears twice", batch, q)
				}
				seen[q] = true
			}
		}
		if len(seen) != len(active) {
			t.Fatalf("batch %d: plan covers %d of %d active queries", batch, len(seen), len(active))
		}

		// Full re-merge over the active set: same geometry remapped to a
		// fresh instance, so costs are directly comparable.
		var ids []int
		for q := range active {
			ids = append(ids, q)
		}
		sort.Ints(ids)
		sub := make([]geom.Rect, len(ids))
		for i, q := range ids {
			sub[i] = rects[q]
		}
		subInst := geomInstance(paperModel, sub)
		full := subInst.Cost(PairMerge{}.Solve(subInst))
		initial := subInst.InitialCost()
		got := inc.Cost()
		if got > initial+1e-9 {
			t.Fatalf("batch %d: incremental cost %g exceeds no-merge cost %g", batch, got, initial)
		}
		if initial-full > 1e-9 && (initial-got) < 0.5*(initial-full) {
			t.Fatalf("batch %d: incremental keeps %g of the %g full re-merge savings (bound: half)",
				batch, initial-got, initial-full)
		}
	}

	checkAgainstRemerge(0)
	for batch := 1; batch <= 4 && next < total; batch++ {
		// Remove 5 random active queries, then add 5 fresh ones.
		var ids []int
		for q := range active {
			ids = append(ids, q)
		}
		sort.Ints(ids)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, q := range ids[:5] {
			if !inc.Remove(q) {
				t.Fatalf("batch %d: Remove(%d) found nothing", batch, q)
			}
			delete(active, q)
		}
		for k := 0; k < 5 && next < total; k++ {
			inc.Add(next)
			active[next] = true
			next++
		}
		checkAgainstRemerge(batch)
	}
}
