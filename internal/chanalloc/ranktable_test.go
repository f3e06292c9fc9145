package chanalloc

import (
	"math/rand"
	"reflect"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// probeExact is relation.Exact under another type: its instances size
// every merged set with an estimator probe behind a memo.
type probeExact struct{ relation.Exact }

// TestRankTableGroupSolvesMatchProbePath runs the §8.2 heuristic over the
// same clients twice: on an instance sized from the rank table, whose
// per-channel groups are solved in place on pooled engines reading the
// singleton-pair table, and on one sized by estimator probes behind a
// memo. Allocation, cost and per-channel plans must agree to the bit, at
// Parallelism 1 and with BestOfBoth's two climbs reading the shared pair
// table concurrently (the -race leg).
func TestRankTableGroupSolvesMatchProbePath(t *testing.T) {
	model := cost.Model{KM: 500, KT: 1, KU: 1, K6: 2}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
		for k := 0; k < 4000; k++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), make([]byte, 16))
		}
		qs := make([]query.Query, 40)
		for i := range qs {
			x, y := 100+rng.Float64()*300, 100+rng.Float64()*300
			qs[i] = query.Range(query.ID(i+1), geom.RectWH(x, y, 20+rng.Float64()*60, 20+rng.Float64()*60))
		}
		clients := make([][]int, 20)
		for c := range clients {
			clients[c] = []int{2 * c, 2*c + 1, rng.Intn(len(qs))} // a shared query now and then
		}
		// problem builds the instance and reports how many merged sizes
		// its cache had to probe the estimator for: none on a table.
		problem := func(est relation.Estimator, parallelism int) (*Problem, *metrics.Counter) {
			inst := core.NewGeomInstance(model, qs, query.BoundingRect{}, est)
			misses := new(metrics.Counter)
			inst.CacheSizes(nil, nil, misses, nil)
			return &Problem{Inst: inst, Clients: clients, Channels: 3, Merger: core.PairMerge{}, Parallelism: parallelism}, misses
		}
		exact := relation.Exact{Rel: rel}
		want, probes := problem(probeExact{exact}, 1)
		wantAlloc, wantCost, err := Heuristic(want, BestOfBoth, seed)
		if err != nil {
			t.Fatal(err)
		}
		if probes.Load() == 0 {
			t.Fatal("the probe instance probed nothing: it got a table")
		}
		for _, parallelism := range []int{1, 2} {
			got, probes := problem(exact, parallelism)
			alloc, c, err := Heuristic(got, BestOfBoth, seed)
			if err != nil {
				t.Fatal(err)
			}
			if probes.Load() != 0 {
				t.Fatalf("the exact instance made %d estimator probes: it got no table", probes.Load())
			}
			if c != wantCost || !allocsEqual(alloc, wantAlloc) {
				t.Fatalf("seed %d parallelism %d: table %v cost %v, probes %v cost %v", seed, parallelism, alloc, c, wantAlloc, wantCost)
			}
			if gotPlans, wantPlans := Plans(got, alloc), Plans(want, wantAlloc); !reflect.DeepEqual(gotPlans, wantPlans) {
				t.Fatalf("seed %d parallelism %d: plans differ:\n%v\n%v", seed, parallelism, gotPlans, wantPlans)
			}
		}
	}
}
