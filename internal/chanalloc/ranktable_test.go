package chanalloc

import (
	"math/rand"
	"reflect"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/procs"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// probeExact is relation.Exact under another type: its instances size
// every merged set with an estimator probe behind a memo.
type probeExact struct{ relation.Exact }

// TestRankTableGroupSolvesMatchProbePath runs the §8.2 heuristic over the
// same clients twice: on an instance sized from the rank table, whose
// per-channel groups are solved in place on pooled engines seeding from
// the instance's candidate pairs (built for every listener count a channel
// can have), and on one sized by estimator probes behind a memo, whose
// solves seed from every pair. Allocation, cost and per-channel plans must
// agree to the bit, at GOMAXPROCS 1 and 2. BestOfBoth's two climbs run in
// sequence, so the GOMAXPROCS-2 leg has no concurrent climb to race; it
// keeps the equivalence check.
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
		problem := func(est relation.Estimator) (*Problem, *metrics.Counter) {
			inst := core.NewGeomInstance(model, qs, query.BoundingRect{}, est)
			misses := new(metrics.Counter)
			inst.CacheSizes(nil, MaxChannelKM(model, len(clients)), nil, misses)
			return &Problem{Inst: inst, Clients: clients, Channels: 3, Merger: core.PairMerge{}}, misses
		}
		exact := relation.Exact{Rel: rel}
		want, probes := problem(probeExact{exact})
		var wantAlloc Allocation
		var wantCost float64
		var err error
		procs.At(1, func() { wantAlloc, wantCost, err = Heuristic(want, BestOfBoth, seed) })
		if err != nil {
			t.Fatal(err)
		}
		if probes.Load() == 0 {
			t.Fatal("the probe instance probed nothing: it got a table")
		}
		for _, procsN := range []int{1, 2} {
			got, probes := problem(exact)
			var alloc Allocation
			var c float64
			procs.At(procsN, func() { alloc, c, err = Heuristic(got, BestOfBoth, seed) })
			if err != nil {
				t.Fatal(err)
			}
			if probes.Load() != 0 {
				t.Fatalf("the exact instance made %d estimator probes: it got no table", probes.Load())
			}
			if c != wantCost || !allocsEqual(alloc, wantAlloc) {
				t.Fatalf("seed %d GOMAXPROCS %d: table %v cost %v, probes %v cost %v", seed, procsN, alloc, c, wantAlloc, wantCost)
			}
			if gotPlans, wantPlans := Plans(got, alloc), Plans(want, wantAlloc); !reflect.DeepEqual(gotPlans, wantPlans) {
				t.Fatalf("seed %d GOMAXPROCS %d: plans differ:\n%v\n%v", seed, procsN, gotPlans, wantPlans)
			}
		}
	}
}

// TestMaxChannelKM checks the bound a channel allocator's instance builds
// its candidate pairs for: the largest K_M of a channel with one to all
// clients listening, whichever sign K_6 has.
func TestMaxChannelKM(t *testing.T) {
	for _, c := range []struct {
		k6, want float64
	}{{3, 10 + 3*20}, {0, 10}, {-3, 10 - 3}} {
		m := cost.Model{KM: 10, KT: 2, KU: 1, K6: c.k6}
		if got := MaxChannelKM(m, 20); got != c.want {
			t.Errorf("K6 %v: MaxChannelKM = %v, want %v", c.k6, got, c.want)
		}
		for listeners := 1; listeners <= 20; listeners++ {
			if km := channelModel(m, listeners).KM; km > MaxChannelKM(m, 20) {
				t.Errorf("K6 %v: %d listeners charge K_M %v past the bound", c.k6, listeners, km)
			}
		}
	}
}
