package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// boundWorld is one fixture of the disjoint-bound oracle: rectangle
// queries over a relation whose exact sizes the bound may rely on.
type boundWorld struct {
	name  string
	rects []geom.Rect
	rel   *relation.Relation
	// est, when set, sizes instead of the exact estimator.
	est relation.Estimator
}

// headerBytes is an estimator that charges every answer a fixed header on
// top of its exact bytes: two disjoint rectangles then size to more than
// their merged rectangle, so the bound must not apply.
type headerBytes struct{ relation.Exact }

func (h headerBytes) SizeBytes(region geom.Region) float64 { return 1000 + h.Exact.SizeBytes(region) }
func (h headerBytes) SizeBytesRect(r geom.Rect) float64    { return 1000 + h.Exact.SizeBytesRect(r) }

// instances returns the world as an instance the bound applies to and as
// one it does not recognise (the same sizes behind a cost.Func), each with
// its own merged-size misses counter. Outside the rank-table window both
// size through a memo, as a shard task does; inside it the first gets the
// raw estimator sizer, the second a memo (a table would leave the bound
// out on both sides).
func (w boundWorld) instances(model cost.Model) (on, off *Instance, onMiss, offMiss *metrics.Counter) {
	qs := make([]query.Query, len(w.rects))
	for i, r := range w.rects {
		qs[i] = query.Range(query.ID(i), r)
	}
	var est, offEst relation.Estimator = relation.Exact{Rel: w.rel}, probeExact{relation.Exact{Rel: w.rel}}
	if w.est != nil {
		est, offEst = w.est, w.est
	}
	onMiss, offMiss = new(metrics.Counter), new(metrics.Counter)
	on = NewGeomInstance(model, qs, query.BoundingRect{}, est)
	inWindow := len(qs) >= tableMinQueries && len(qs) <= tableMaxQueries
	if !inWindow {
		on.CacheSizes(nil, nil, onMiss, nil)
	}
	off = NewGeomInstance(model, qs, query.BoundingRect{}, offEst)
	off.CacheSizes(nil, nil, offMiss, nil)
	off.Sizer = cost.Func{SizeFn: off.Sizer.Size, MergedFn: off.Sizer.MergedSize}
	return on, off, onMiss, offMiss
}

// boundWorlds are the oracle's fixtures: scattered rectangles, most pairs
// strictly disjoint, sized exactly and with a header per answer;
// rectangles on a coarse lattice, with tuples on lattice
// points, so many pairs touch along an edge or at a corner with tuples on
// it, some zero-width or zero-height; and a hand-built chain in which a
// pair shares only an edge holding a heavy tuple and a third query meets a
// merged set through one member only.
func boundWorlds(rng *rand.Rand) []boundWorld {
	var worlds []boundWorld
	for _, n := range []int{12, 40, 300} {
		rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 16, 16)
		for k := 0; k < 3000; k++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), make([]byte, rng.Intn(20)))
		}
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.RectWH(rng.Float64()*950, rng.Float64()*950, 5+rng.Float64()*45, 5+rng.Float64()*45)
		}
		worlds = append(worlds, boundWorld{fmt.Sprintf("scattered-%d", n), rects, rel, nil})
		if n < 100 {
			worlds = append(worlds, boundWorld{fmt.Sprintf("header-%d", n), rects, rel, headerBytes{relation.Exact{Rel: rel}}})
		}
	}
	for _, n := range []int{12, 40, 300} {
		rel := relation.MustNew(geom.R(0, 0, 12, 12), 4, 4)
		for x := 0; x <= 12; x++ {
			for y := 0; y <= 12; y++ {
				if rng.Intn(3) == 0 {
					rel.Insert(geom.Pt(float64(x), float64(y)), make([]byte, rng.Intn(4)*rng.Intn(200)))
				}
			}
		}
		rects := make([]geom.Rect, n)
		for i := range rects {
			x0, y0 := rng.Intn(12), rng.Intn(12)
			rects[i] = geom.R(float64(x0), float64(y0), float64(x0+rng.Intn(4)), float64(y0+rng.Intn(4)))
		}
		worlds = append(worlds, boundWorld{fmt.Sprintf("lattice-%d", n), rects, rel, nil})
	}
	rel := relation.MustNew(geom.R(0, 0, 100, 100), 4, 4)
	rel.Insert(geom.Pt(10, 5), make([]byte, 600))  // on the edge a and b share
	rel.Insert(geom.Pt(30, 5), make([]byte, 600))  // on the zero-width c, inside d
	rel.Insert(geom.Pt(55, 5), make([]byte, 1000)) // where e and f overlap
	rel.Insert(geom.Pt(62, 5), make([]byte, 900))  // where f and g overlap, outside e
	rel.Insert(geom.Pt(48, 5), make([]byte, 10))
	worlds = append(worlds, boundWorld{"chain", []geom.Rect{
		geom.R(0, 0, 10, 10), geom.R(10, 0, 20, 10), // a, b
		geom.R(30, 0, 30, 10), geom.R(30, 0, 40, 10), // c, d
		geom.R(45, 0, 56, 10), geom.R(54, 0, 63, 10), geom.R(61, 0, 70, 10), // e, f, g
		geom.R(90, 90, 95, 95),
	}, rel, nil})
	return worlds
}

// TestDisjointBoundMatchesProbing is the oracle of the §6.3 bound in the
// pair-merge engine: every Solve, SolveCost, GroupCost and GroupPlan on an
// instance the bound applies to must return what the same instance returns
// with every candidate probed — plans equal, costs equal to the bit, and
// the same budget steps, heap pops and merges — at Neighbors 0, 3 and ≥ n,
// with and without step budgets, under models with and without listener
// surcharges. The bound may never cost a probe, and on the scattered
// fixture under paperModel it must save at least half of them.
func TestDisjointBoundMatchesProbing(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	models := []cost.Model{paperModel, {KM: 500, KT: 1, KU: 1}, {KM: 2000, KT: 1, KU: 0.5}}
	merged, trials := 0, 0
	for _, w := range boundWorlds(rng) {
		n := len(w.rects)
		for mi, model := range models {
			if n > 100 && mi > 0 {
				break // one model past the table window keeps the test quick
			}
			on, off, onMiss, offMiss := w.instances(model)
			if (disjointRects(on.Sizer) == nil) != (w.est != nil) || disjointRects(off.Sizer) != nil {
				t.Fatalf("%s: the bound applies where it must not, or not where it should", w.name)
			}
			run := func(inst *Instance, steps int64, solve func(*Instance)) [3]uint64 {
				var pops, merges metrics.Counter
				inst.Budget = NewBudget(0, steps)
				inst.Metrics = &SolverMetrics{HeapPops: &pops, Merges: &merges}
				solve(inst)
				spent := [3]uint64{uint64(inst.Budget.Steps()), pops.Load(), merges.Load()}
				inst.Budget, inst.Metrics = nil, nil
				return spent
			}
			rounds := 6
			if n > 100 {
				rounds = 1
			}
			for k := 0; k < rounds; k++ {
				steps := int64(0)
				if k%3 == 2 {
					steps = int64(1 + rng.Intn(n*n))
				}
				members := rng.Perm(n)[:1+rng.Intn(n)]
				if k%2 == 0 {
					members = ascending(members, n)
				}
				group := model
				group.KM += float64(rng.Intn(5)) * 40
				for _, pm := range []PairMerge{{}, {Neighbors: 3}, {Neighbors: n + rng.Intn(3)}} {
					trials++
					where := fmt.Sprintf("%s model %d %+v budget %d", w.name, mi, pm, steps)
					var gotPlan, wantPlan Plan
					gs := run(on, steps, func(inst *Instance) { gotPlan = pm.Solve(inst) })
					ws := run(off, steps, func(inst *Instance) { wantPlan = pm.Solve(inst) })
					if !reflect.DeepEqual(gotPlan, wantPlan) || gs != ws {
						t.Fatalf("%s: Solve %v spent %v, probing every pair %v spent %v", where, gotPlan, gs, wantPlan, ws)
					}
					if len(gotPlan) < n {
						merged++
					}
					var got, want float64
					gs = run(on, steps, func(inst *Instance) { got = pm.SolveCost(inst) })
					ws = run(off, steps, func(inst *Instance) { want = pm.SolveCost(inst) })
					if got != want || gs != ws {
						t.Fatalf("%s: SolveCost %v spent %v, probing every pair %v spent %v", where, got, gs, want, ws)
					}
					gs = run(on, steps, func(inst *Instance) { got = pm.GroupCost(inst, members, group) })
					ws = run(off, steps, func(inst *Instance) { want = pm.GroupCost(inst, members, group) })
					if got != want || gs != ws {
						t.Fatalf("%s group %v: GroupCost %v spent %v, probing every pair %v spent %v", where, members, got, gs, want, ws)
					}
					gs = run(on, steps, func(inst *Instance) { gotPlan = pm.GroupPlan(inst, members, group) })
					ws = run(off, steps, func(inst *Instance) { wantPlan = pm.GroupPlan(inst, members, group) })
					if !reflect.DeepEqual(gotPlan, wantPlan) || gs != ws {
						t.Fatalf("%s group %v: GroupPlan %v spent %v, probing every pair %v spent %v", where, members, gotPlan, gs, wantPlan, ws)
					}
				}
			}
			if n != 40 && onMiss.Load() > offMiss.Load() {
				t.Fatalf("%s model %d: %d probes with the bound, %d without", w.name, mi, onMiss.Load(), offMiss.Load())
			}
			// Under paperModel a disjoint pair of the scattered fixture
			// is worth merging only when its sizes total under 2.5 bytes.
			if w.name == "scattered-300" && mi == 0 && 2*onMiss.Load() > offMiss.Load() {
				t.Fatalf("%s model %d: the bound saved too little: %d probes against %d", w.name, mi, onMiss.Load(), offMiss.Load())
			}
		}
	}
	if merged < trials/3 {
		t.Fatalf("only %d of %d solves merged anything", merged, trials)
	}
}

// TestDisjointBoundLeavesTouchingPairsAlone pins the closed-rectangle rule
// on the chain fixture: a and b share only the edge x = 10, and the one
// tuple on it, counted in both sizes, makes Ra + Rb twice the merged size,
// so a bound that took touching rectangles for disjoint would rule the
// pair out; so for the zero-width c and d, which share the line x = 30.
// Probed, both pairs merge.
func TestDisjointBoundLeavesTouchingPairsAlone(t *testing.T) {
	w := boundWorlds(rand.New(rand.NewSource(94)))
	chain := w[len(w)-1]
	on, _, _, _ := chain.instances(cost.Model{KM: 500, KT: 1, KU: 1})
	plan := PairMerge{}.Solve(on)
	together := func(a, b int) bool {
		for _, set := range plan {
			ina, inb := false, false
			for _, q := range set {
				ina, inb = ina || q == a, inb || q == b
			}
			if ina || inb {
				return ina && inb
			}
		}
		return false
	}
	if !together(0, 1) || !together(2, 3) {
		t.Fatalf("touching pairs not merged: %v", plan)
	}
}
