package core

import (
	"math/rand"
	"reflect"
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

// groupWorld is a parent instance of one of the three sizer kinds a group
// solve meets: the rank table with its singleton-pair sizes, estimator
// probes behind a memo, or the order-sensitive abstract sizer. All carry
// centers.
func groupWorld(rng *rand.Rand, kind string, n int) *Instance {
	var inst *Instance
	switch kind {
	case "abstract":
		inst = randomAbstractInstance(rng, n, paperModel)
	default:
		rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
		qs := rankTableWorld(rng, rel, n)
		var est relation.Estimator = relation.Exact{Rel: rel}
		if kind == "memo" {
			est = probeExact{relation.Exact{Rel: rel}}
		}
		inst = NewGeomInstance(paperModel, qs, query.BoundingRect{}, est)
		inst.CacheSizes(nil, nil, nil, nil)
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

// TestGroupSolveInPlaceMatchesSubInstance is the seeded differential test
// of PairMerge.GroupCost and GroupPlan against a solve of the group's own
// sub-instance (oracleSub): random member subsets, ascending and shuffled,
// of parents sized by the rank table, a memo and the order-sensitive
// abstract sizer, past one bitset word, under random listener surcharges,
// at Neighbors 0, 3 and ≥ the group, with and without step budgets. Costs
// must be equal to the bit, plans equal, and both sides must take the same
// budget steps, heap pops and merges.
func TestGroupSolveInPlaceMatchesSubInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials, merged := 0, 0
	for _, kind := range []string{"table", "memo", "abstract"} {
		for _, n := range []int{tableMinQueries, 48, 90} {
			inst := groupWorld(rng, kind, n)
			for k := 0; k < 12; k++ {
				members := rng.Perm(n)[:1+rng.Intn(n)]
				if k%3 != 0 {
					members = ascending(members, n)
				}
				m := len(members)
				model := cost.Model{KM: []float64{10, 200, 2000}[k%3], KT: 9, KU: 4, K6: 3}
				model.KM += model.K6 * float64(1+rng.Intn(8))
				steps := int64(0)
				if k%4 == 3 {
					steps = int64(1 + rng.Intn(m*m))
				}
				for _, pm := range []PairMerge{{}, {Neighbors: 3}, {Neighbors: m + rng.Intn(3)}} {
					trials++
					// run solves once on each side, each with a fresh
					// budget and counters, and returns what they spent.
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
						t.Fatalf("%s n=%d %v %+v budget %d: GroupCost %v spent %v, sub-instance %v spent %v",
							kind, n, members, pm, steps, got, gotSpent, want, wantSpent)
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
						t.Fatalf("%s n=%d %v %+v budget %d: GroupPlan %v, sub-instance %v", kind, n, members, pm, steps, gotPlan, wantPlan)
					}
					if c := cost.PlanCost(model, inst.Sizer, gotPlan); c != got {
						t.Fatalf("%s n=%d %v %+v: GroupCost %v, cost of GroupPlan %v", kind, n, members, pm, got, c)
					}
					if len(gotPlan) < m {
						merged++
					}
				}
			}
		}
	}
	if merged < trials/3 {
		t.Fatalf("only %d of %d group solves merged anything", merged, trials)
	}
	if got := (PairMerge{}).GroupCost(&Instance{N: 3}, nil, paperModel); got != 0 {
		t.Fatalf("an empty group costs %v", got)
	}
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
		inst := groupWorld(rng, kind, 48)
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
