package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// TestWorkspaceSolveCostEqualsCostOfSolve pins SolveCost to the bit: it
// sums the set costs Instance.Cost would, in the same order, on geometric
// and on order-sensitive abstract sizers, past one bitset word, with the
// pruned engine and under step budgets. The Profit Table oracles run
// under the same budgets and must return partitions too.
func TestWorkspaceSolveCostEqualsCostOfSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(90)
		inst := randomInstance(rng, n, paperModel)
		if trial%2 == 1 {
			inst = randomAbstractInstance(rng, n, paperModel)
		}
		inst.Centers = make([]geom.Point, n)
		for i := range inst.Centers {
			inst.Centers[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		steps := int64(0)
		if trial%3 == 0 {
			steps = int64(1 + rng.Intn(n*n))
		}
		for _, pt := range []profitTable{{}, {naive: true}} {
			inst.Budget = NewBudget(0, steps)
			if plan := pt.Solve(inst); !plan.IsPartition(n) {
				t.Fatalf("trial %d n=%d %s budget %d: %v is not a partition", trial, n, pt.Name(), steps, plan)
			}
		}
		for _, pm := range []PairMerge{{}, {Neighbors: 1 + rng.Intn(n)}} {
			inst.Budget = NewBudget(0, steps)
			plan := pm.Solve(inst)
			inst.Budget = NewBudget(0, steps)
			got := pm.SolveCost(inst)
			inst.Budget = nil
			if want := inst.Cost(plan); got != want {
				t.Fatalf("trial %d n=%d %+v budget %d: SolveCost %v, Cost(Solve) %v", trial, n, pm, steps, got, want)
			}
			if !plan.IsPartition(n) {
				t.Fatalf("trial %d n=%d %+v: %v is not a partition", trial, n, pm, plan)
			}
		}
	}
	if got := (PairMerge{}).SolveCost(&Instance{}); got != 0 {
		t.Fatalf("empty instance costs %v", got)
	}
}

// TestWorkspacePlansDoNotAliasPool solves on several goroutines at once,
// instances of different sizes so engines change hands, and checks that a
// plan handed out earlier is still what it was and that every plan equals
// the one a second solve returns: nothing a solve returns may live in
// pooled memory. Run under -race it also covers the pool itself.
func TestWorkspacePlansDoNotAliasPool(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	first := randomInstance(rng, 40, paperModel)
	kept := PairMerge{}.Solve(first)
	want := kept.Clone()
	// Appending to a set must not write into its neighbour's memory.
	kept[0] = append(kept[0], -1)[:len(kept[0])]

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 40; k++ {
				inst := randomInstance(rng, 2+rng.Intn(80), paperModel)
				a := PairMerge{}.Solve(inst)
				c := PairMerge{}.SolveCost(inst)
				b := PairMerge{}.Solve(inst)
				if !reflect.DeepEqual(a, b) || c != inst.Cost(a) || !a.IsPartition(inst.N) {
					t.Errorf("seed %d solve %d: plans %v and %v, cost %v", seed, k, a, b, c)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("a returned plan changed while other solves ran:\n%v\nwas\n%v", kept, want)
	}
}

// TestInstanceSubMergedSizeDoesNotAllocate pins the pooled translation
// buffer of a sub-instance: a probe allocates nothing, from several
// goroutines at once (Clustering components and BestOfBoth's climbs solve
// sub-instances concurrently) and for sets longer than the pooled
// capacity once the pool has grown.
func TestInstanceSubMergedSizeDoesNotAllocate(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(9)), 80, paperModel)
	members := make([]int, 0, 60)
	for q := 79; q >= 20; q-- {
		members = append(members, q)
	}
	sub := inst.Sub(members)
	for _, set := range [][]int{{4}, {0, 7, 31}, rand.New(rand.NewSource(1)).Perm(60)} {
		mapped := make([]int, len(set))
		for i, q := range set {
			mapped[i] = members[q]
		}
		want := inst.Sizer.MergedSize(mapped)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 200; k++ {
					if got := sub.Sizer.MergedSize(set); got != want {
						t.Errorf("MergedSize(%v) = %v, want %v", set, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if allocs := testing.AllocsPerRun(200, func() { sub.Sizer.MergedSize(set) }); allocs != 0 {
			t.Errorf("MergedSize over %d queries: %v allocs per probe, want 0", len(set), allocs)
		}
	}
}

// rankTableWorld is n clustered rectangle queries over a relation of
// 3000 tuples, some of them exactly on query edges.
func rankTableWorld(rng *rand.Rand, rel *relation.Relation, n int) []query.Query {
	qs := make([]query.Query, n)
	for i := range qs {
		x, y := 200+rng.Float64()*500, 200+rng.Float64()*500
		r := geom.RectWH(x, y, 20+rng.Float64()*80, 20+rng.Float64()*80)
		qs[i] = query.Range(query.ID(i+1), r)
		rel.Insert(geom.Pt(r.MinX, r.MaxY), nil)
	}
	for k := 0; k < 3000; k++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), make([]byte, rng.Intn(20)))
	}
	return qs
}

// probeExact is relation.Exact under another type: a RectSizer the
// instance probes for every merged size, never building a table.
type probeExact struct{ relation.Exact }

// TestRankTableInstance checks who gets a rank table and that it changes
// no size: inside the window CacheSizes installs the table, outside it and
// on polygons a memo; every sampled subset sizes
// the same as on the probe path, and so does a sub-instance's; a pair-merge
// solve, of the whole instance or of a group, reports its lookups once, as
// hits, and no miss.
func TestRankTableInstance(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	for _, tc := range []struct {
		name  string
		rel   *relation.Relation
		n     int
		table bool
	}{
		{"in-window", relation.MustNew(bounds, 32, 32), 30, true},
		{"window-low", relation.MustNew(bounds, 32, 32), tableMinQueries, true},
		{"too-small", relation.MustNew(bounds, 32, 32), tableMinQueries - 1, false},
		{"too-large", relation.MustNew(bounds, 32, 32), tableMaxQueries + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(63))
			qs := rankTableWorld(rng, tc.rel, tc.n)
			exact := relation.Exact{Rel: tc.rel}
			probe := NewGeomInstance(paperModel, qs, query.BoundingRect{}, probeExact{exact})

			// Left alone, an instance builds nothing for single sizes
			// and, inside the window, the table on the first merged one.
			lazy := NewGeomInstance(paperModel, qs, query.BoundingRect{}, exact)
			rs := lazy.Sizer.(*rectSizer)
			lazy.InitialCost()
			if rs.table != nil {
				t.Fatal("single sizes built the table")
			}
			if got, want := lazy.Sizer.MergedSize([]int{0, 1}), probe.Sizer.MergedSize([]int{0, 1}); got != want {
				t.Fatalf("lazy MergedSize = %v, probe path %v", got, want)
			}
			if (rs.table != nil) != tc.table {
				t.Fatalf("after the first merged size: table %v, want %v", rs.table != nil, tc.table)
			}

			inst := NewGeomInstance(paperModel, qs, query.BoundingRect{}, exact)
			var hits, misses metrics.Counter
			inst.CacheSizes(nil, &hits, &misses)
			if _, ok := inst.Sizer.(tableSizer); ok != tc.table {
				t.Fatalf("CacheSizes installed %T, want a table: %v", inst.Sizer, tc.table)
			}
			for k := 0; k < 300; k++ {
				set := rng.Perm(tc.n)[:1+rng.Intn(min(tc.n, 12))]
				if got, want := inst.Sizer.MergedSize(set), probe.Sizer.MergedSize(set); got != want {
					t.Fatalf("MergedSize(%v) = %v, probe path %v", set, got, want)
				}
			}
			for i := 0; i < tc.n; i++ {
				if got, want := inst.Sizer.Size(i), probe.Sizer.Size(i); got != want {
					t.Fatalf("Size(%d) = %v, probe path %v", i, got, want)
				}
			}
			plan, want := PairMerge{}.Solve(inst), PairMerge{}.Solve(probe)
			if !reflect.DeepEqual(plan, want) || inst.Cost(plan) != probe.Cost(want) {
				t.Fatalf("plans differ:\n%v\n%v", plan, want)
			}
			if !tc.table {
				return
			}
			if hits.Load() < uint64(tc.n*(tc.n-1)/2) || misses.Load() != 0 {
				t.Fatalf("a solve of %d queries on the table counted %d hits, %d misses", tc.n, hits.Load(), misses.Load())
			}
			before := hits.Load()
			members := []int{5, 2, 9}
			if got, want := inst.Sub(members).Sizer.MergedSize([]int{0, 2}), probe.Sizer.MergedSize([]int{5, 9}); got != want {
				t.Fatalf("sub-instance MergedSize = %v, probe path %v", got, want)
			}
			if got, want := (PairMerge{}).GroupCost(inst, members, paperModel), (PairMerge{}).GroupCost(probe, members, paperModel); got != want {
				t.Fatalf("group cost on the table %v, probe path %v", got, want)
			}
			if hits.Load() != before+3 {
				t.Fatalf("a 3-query group solve on the table counted %d lookups, want its 3 pair probes", hits.Load()-before)
			}
		})
	}

	// Polygons take the general merge-procedure path behind a memo.
	hull := geom.ConvexHull([]geom.Point{{X: 1, Y: 1}, {X: 9, Y: 2}, {X: 5, Y: 8}})
	qs := make([]query.Query, 20)
	for i := range qs {
		qs[i] = query.Query{ID: query.ID(i + 1), Region: hull}
	}
	inst := NewGeomInstance(paperModel, qs, query.BoundingRect{}, relation.Exact{Rel: relation.MustNew(bounds, 8, 8)})
	inst.CacheSizes(nil, nil, nil)
	if _, ok := inst.Sizer.(*cost.Memo); !ok {
		t.Fatalf("polygon instance got %T", inst.Sizer)
	}
}

// BenchmarkRankTableCrossover is where tableMinQueries comes from: one
// exact PairMerge of n clustered queries over the plan-paper relation
// (20k and 100k uniform tuples, 64×64 grid; the first n of one list of
// 48, a third of them uniform, so every n spans most of the relation),
// sizes cached per solve, through the rank table (forced, whatever n) and
// through estimator probes behind a memo.
func BenchmarkRankTableCrossover(b *testing.B) {
	bounds := geom.R(0, 0, 1000, 1000)
	for _, tuples := range []int{20000, 100000} {
		rng := rand.New(rand.NewSource(1))
		rel := relation.MustNew(bounds, 64, 64)
		for k := 0; k < tuples; k++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), make([]byte, 16))
		}
		all := make([]query.Query, 48)
		for i := range all {
			x, y := 300+rng.NormFloat64()*40, 300+rng.NormFloat64()*40
			if i%3 == 2 {
				x, y = rng.Float64()*900, rng.Float64()*900
			}
			all[i] = query.Range(query.ID(i+1), geom.RectWH(x, y, 20+rng.Float64()*60, 20+rng.Float64()*60))
		}
		for _, n := range []int{8, 12, 16, 20, 24, 48} {
			qs := all[:n]
			model := cost.Model{KM: 500, KT: 1, KU: 1}
			for _, path := range []string{"table", "probe"} {
				b.Run(fmt.Sprintf("tuples=%d/n=%d/%s", tuples, n, path), func(b *testing.B) {
					for k := 0; k < b.N; k++ {
						inst := NewGeomInstance(model, qs, query.BoundingRect{}, relation.Exact{Rel: rel})
						rs := inst.Sizer.(*rectSizer)
						rs.rel = nil
						if path == "table" {
							rs.rel = rel
						}
						inst.CacheSizes(nil, nil, nil)
						PairMerge{}.Solve(inst)
					}
				})
			}
		}
	}
}
