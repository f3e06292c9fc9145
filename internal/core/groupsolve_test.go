package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// oracleSub is the reference an in-place group solve is pinned against:
// the members' own instance, re-indexed 0..len(members)-1, sizing through
// a fresh translated slice per probe, with gathered centers and the
// parent's budget and metrics, under the group's model.
func oracleSub(inst *Instance, members []int, model cost.Model) *Instance {
	sub := &Instance{
		N:       len(members),
		Model:   model,
		Budget:  inst.Budget,
		Metrics: inst.Metrics,
		Sizer: cost.Func{
			SizeFn: func(i int) float64 { return inst.Sizer.Size(members[i]) },
			MergedFn: func(set []int) float64 {
				mapped := make([]int, len(set))
				for i, q := range set {
					mapped[i] = members[q]
				}
				return inst.Sizer.MergedSize(mapped)
			},
		},
	}
	if inst.Centers != nil {
		sub.Centers = make([]geom.Point, len(members))
		for i, q := range members {
			sub.Centers[i] = inst.Centers[q]
		}
	}
	return sub
}

// groupWorld is a parent instance under model of one of the three sizer
// kinds a group solve meets: the rank table with its candidate pairs for
// up to listeners listeners, estimator probes behind a memo, or the
// order-sensitive abstract sizer. All carry centers.
func groupWorld(rng *rand.Rand, kind string, n int, model cost.Model, listeners int) *Instance {
	var inst *Instance
	switch kind {
	case "abstract":
		inst = randomAbstractInstance(rng, n, model)
	default:
		rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
		qs := rankTableWorld(rng, rel, n)
		var est relation.Estimator = relation.Exact{Rel: rel}
		if kind == "memo" {
			est = probeExact{relation.Exact{Rel: rel}}
		}
		inst = NewGeomInstance(model, qs, query.BoundingRect{}, est)
		inst.CacheSizes(nil, model.KM+model.K6*float64(listeners), nil, nil)
		if _, ok := inst.Sizer.(tableSizer); ok != (kind == "table") {
			panic(kind + " world sized by the wrong sizer")
		}
	}
	if inst.Centers == nil {
		inst.Centers = make([]geom.Point, n)
		for i := range inst.Centers {
			inst.Centers[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
	}
	return inst
}

// singletonDelta is the Δ-cost of merging queries i and j of inst under
// model, sized through inst's sizer.
func singletonDelta(inst *Instance, model cost.Model, i, j int) float64 {
	return cost.PairDelta(model, 1, inst.Sizer.Size(i), 1, inst.Sizer.Size(j), inst.Sizer.MergedSize([]int{i, j}))
}

// TestGroupSolveInPlaceMatchesSubInstance is the seeded differential test
// of PairMerge.GroupCost and GroupPlan against a solve of the group's own
// sub-instance (oracleSub): random member subsets, ascending and shuffled,
// of parents sized by the rank table, a memo and the order-sensitive
// abstract sizer, past one bitset word, at Neighbors 0, 3 and ≥ the group,
// with and without step budgets. The models are channel models: an
// instance model (K_M cheap to dear, K_T = 0, K_U = 0) plus K_6 for up to
// one listener more than the table's candidate pairs were built for, so
// the candidate seed runs, a listener surcharge turns singleton pairs
// positive that are not at the instance's K_M, and a model past the lists
// falls back to the full seed. Costs must be equal to the bit, plans
// equal, and both sides must take the same budget steps, heap pops and
// merges. A constructed group last: its third query merges only with the
// merged pair, so the merged set's probes must reach past the candidate
// lists.
func TestGroupSolveInPlaceMatchesSubInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const listeners = 8
	bases := []cost.Model{
		{KM: 10, KT: 9, KU: 4, K6: 40}, {KM: 200, KT: 9, KU: 4, K6: 40}, {KM: 2000, KT: 9, KU: 4, K6: 40},
		{KM: 200, KT: 0, KU: 4, K6: 40}, {KM: 200, KT: 9, KU: 0, K6: 40},
	}
	trials, merged, seeded, fallback, flipped := 0, 0, 0, 0, 0
	for _, kind := range []string{"table", "memo", "abstract"} {
		for _, n := range []int{tableMinQueries, 48, 90} {
			for bi, base := range bases {
				inst := groupWorld(rng, kind, n, base, listeners)
				for k := 0; k < 4; k++ {
					members := rng.Perm(n)[:1+rng.Intn(n)]
					if k%3 != 0 {
						members = ascending(members, n)
					}
					m := len(members)
					model := base
					model.KM += model.K6 * float64(1+rng.Intn(listeners+1))
					steps := int64(0)
					if (k+bi)%4 == 3 {
						steps = int64(1 + rng.Intn(m*m))
					}
					if kind == "table" {
						if steps == 0 && inst.Sizer.(tableSizer).cands.admits(model) {
							seeded++
						} else if steps == 0 {
							fallback++
						}
						for a, i := range members {
							for _, j := range members[a+1:] {
								if singletonDelta(inst, base, i, j) <= 0 && singletonDelta(inst, model, i, j) > 0 {
									flipped++
								}
							}
						}
					}
					for _, pm := range []PairMerge{{}, {Neighbors: 3}, {Neighbors: m + rng.Intn(3)}} {
						trials++
						if checkGroupSolve(t, inst, pm, members, model, steps) {
							merged++
						}
					}
				}
			}
		}
	}
	if merged < trials/3 {
		t.Fatalf("only %d of %d group solves merged anything", merged, trials)
	}
	if seeded < 10 || fallback == 0 || flipped == 0 {
		t.Fatalf("%d solves seeded from the candidate lists, %d fell back, %d singleton pairs turned positive with listeners", seeded, fallback, flipped)
	}
	if got := (PairMerge{}).GroupCost(&Instance{N: 3}, nil, paperModel); got != 0 {
		t.Fatalf("an empty group costs %v", got)
	}

	inst, model := afterMergeWorld(t)
	for _, members := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		for _, pm := range []PairMerge{{}, {Neighbors: 1}} {
			if !checkGroupSolve(t, inst, pm, members, model, 0) {
				t.Fatalf("%v %+v: the constructed group did not merge", members, pm)
			}
			if plan := pm.GroupPlan(inst, members, model); len(plan) != 1 {
				t.Fatalf("%v %+v: plan %v, want the three queries in one set", members, pm, plan)
			}
		}
	}
}

// TestPairListsNamePositivePairs pins the candidate lists a table
// instance gets: query j is a partner of query i exactly when their
// singleton Δ-cost, sized on the probe path, is positive at the largest
// channel K_M (the instance's K_M plus K_6 for every listener), and each
// query's partners ascend. Some listed pairs must not be positive at the
// instance's own K_M, so the lists are checked where the listener bound
// matters; and a model past the bound, or with another K_T or K_U, is
// refused.
func TestPairListsNamePositivePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const listeners = 8
	for _, base := range []cost.Model{{KM: 2000, KT: 9, KU: 4, K6: 200}, {KM: 500, KT: 0, KU: 4, K6: 100}, {KM: 2000, KT: 9, KU: 0, K6: 200}} {
		rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
		qs := rankTableWorld(rng, rel, 48)
		inst := NewGeomInstance(base, qs, query.BoundingRect{}, relation.Exact{Rel: rel})
		top := base
		top.KM += top.K6 * listeners
		inst.CacheSizes(nil, top.KM, nil, nil)
		probe := NewGeomInstance(base, qs, query.BoundingRect{}, probeExact{relation.Exact{Rel: rel}})
		lists := inst.Sizer.(tableSizer).cands
		listed, surcharged := 0, 0
		for i := range qs {
			var want []int32
			for j := range qs {
				if j != i && singletonDelta(probe, top, i, j) > 0 {
					want = append(want, int32(j))
					if singletonDelta(probe, base, i, j) <= 0 {
						surcharged++
					}
				}
			}
			if got := lists.partners[lists.start[i]:lists.start[i+1]]; !slices.Equal(got, want) {
				t.Fatalf("%+v: partners of %d are %v, want %v", base, i, got, want)
			}
			listed += len(want)
		}
		if listed == 0 || surcharged == 0 {
			t.Fatalf("%+v: %d partners listed, %d of them positive only with listeners", base, listed, surcharged)
		}
		for _, m := range []cost.Model{base, top} {
			if !lists.admits(m) {
				t.Fatalf("lists for %+v refuse %+v", base, m)
			}
		}
		over, kt, ku := top, base, base
		over.KM = math.Nextafter(top.KM, math.Inf(1))
		kt.KT++
		ku.KU++
		for _, m := range []cost.Model{over, kt, ku} {
			if lists.admits(m) {
				t.Fatalf("lists for %+v admit %+v", base, m)
			}
		}
	}
}

// checkGroupSolve solves the group in place and on its own sub-instance,
// each side with a fresh budget of steps (none at 0) and fresh counters,
// fails the test unless the two agree, and reports whether the group
// merged anything.
func checkGroupSolve(t *testing.T, inst *Instance, pm PairMerge, members []int, model cost.Model, steps int64) bool {
	t.Helper()
	run := func(solve func(*Instance)) [3]uint64 {
		var pops, merges metrics.Counter
		inst.Budget = NewBudget(0, steps)
		inst.Metrics = &SolverMetrics{HeapPops: &pops, Merges: &merges}
		solve(inst)
		spent := [3]uint64{uint64(inst.Budget.Steps()), pops.Load(), merges.Load()}
		inst.Budget, inst.Metrics = nil, nil
		return spent
	}
	var got, want float64
	var gotPlan, wantPlan Plan
	gotSpent := run(func(inst *Instance) { got = pm.GroupCost(inst, members, model) })
	wantSpent := run(func(inst *Instance) { want = pm.SolveCost(oracleSub(inst, members, model)) })
	if got != want || gotSpent != wantSpent {
		t.Fatalf("n=%d %v %+v %+v budget %d: GroupCost %v spent %v, sub-instance %v spent %v",
			inst.N, members, pm, model, steps, got, gotSpent, want, wantSpent)
	}
	run(func(inst *Instance) { gotPlan = pm.GroupPlan(inst, members, model) })
	run(func(inst *Instance) {
		wantPlan = pm.Solve(oracleSub(inst, members, model))
		for _, set := range wantPlan {
			for i, q := range set {
				set[i] = members[q]
			}
		}
	})
	if !reflect.DeepEqual(gotPlan, wantPlan) {
		t.Fatalf("n=%d %v %+v %+v budget %d: GroupPlan %v, sub-instance %v", inst.N, members, pm, model, steps, gotPlan, wantPlan)
	}
	if c := cost.PlanCost(model, inst.Sizer, gotPlan); c != got {
		t.Fatalf("n=%d %v %+v: GroupCost %v, cost of GroupPlan %v", inst.N, members, pm, got, c)
	}
	return len(gotPlan) < len(members)
}

// afterMergeWorld is a table instance whose queries 0, 1 and 2 form a
// group where only the merged set of 0 and 1 gains from taking 2 in. Over
// a 10×10 lattice of tuples, A (query 0) and B (query 1) overlap and 48
// tuples each; C (query 2) holds one tuple outside both. A's and C's box
// holds 60 tuples and B's and C's 80, while A's and B's holds all 100,
// and C too. Under K_T = 1, K_U = 0 and K_M = 8 tuples, merging A and B
// saves 8 − 4 tuples, A and C −3, B and C −23, and the merged pair and C
// 9. The fillers hold no tuple and lie far away; they take the instance
// into the table's window.
func afterMergeWorld(t *testing.T) (*Instance, cost.Model) {
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
	for x := 5.0; x < 100; x += 10 {
		for y := 5.0; y < 100; y += 10 {
			rel.Insert(geom.Pt(x, y), nil)
		}
	}
	qs := []query.Query{
		query.Range(1, geom.R(0, 0, 60, 80)),
		query.Range(2, geom.R(40, 20, 100, 100)),
		query.Range(3, geom.R(0, 90, 10, 100)),
	}
	for i := len(qs); i < tableMinQueries; i++ {
		x := 500 + 30*float64(i)
		qs = append(qs, query.Range(query.ID(i+1), geom.R(x, 900, x+10, 910)))
	}
	tuple := relation.Exact{Rel: rel}.SizeBytesRect(geom.R(0, 90, 10, 100))
	model := cost.Model{KM: 8 * tuple, KT: 1}
	inst := NewGeomInstance(model, qs, query.BoundingRect{}, relation.Exact{Rel: rel})
	inst.CacheSizes(nil, 0, nil, nil)
	lists := inst.Sizer.(tableSizer).cands
	partners := func(q int) []int32 { return lists.partners[lists.start[q]:lists.start[q+1]] }
	if !slices.Contains(partners(0), 1) || slices.Contains(partners(0), 2) || slices.Contains(partners(1), 2) {
		t.Fatalf("candidate partners of A %v, of B %v: want B for A and C for neither", partners(0), partners(1))
	}
	if d := singletonDelta(inst, model, 0, 2); d > 0 {
		t.Fatalf("A and C gain %v from merging", d)
	}
	return inst, model
}

// ascending returns the members in ascending order, as channel
// allocation hands a group to the solver.
func ascending(members []int, n int) []int {
	return cost.QSetOf(members, n).AppendIndices(nil)
}

// TestGroupSolveDoesNotAllocate pins the in-place group solve: once the
// engine pool is warm, an unpruned GroupCost allocates nothing, on the
// rank table and on a warm memo.
func TestGroupSolveDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(72))
	for _, kind := range []string{"table", "memo"} {
		inst := groupWorld(rng, kind, 48, paperModel, 0)
		members := ascending(rng.Perm(48)[:20], 48)
		model := cost.Model{KM: 500, KT: 9, KU: 4}
		if plan := (PairMerge{}).GroupPlan(inst, members, model); len(plan) == len(members) {
			t.Fatalf("%s: nothing merged, the solve exercises no merged-size probe", kind)
		}
		if allocs := testing.AllocsPerRun(50, func() { PairMerge{}.GroupCost(inst, members, model) }); allocs != 0 {
			t.Errorf("%s: a warm group solve made %v allocations, want 0", kind, allocs)
		}
	}
}
