package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// opaqueSizer hides a sizer's type from the pair-merge engine, which then
// neither reads a rank table's pair sizes nor applies the disjoint bound:
// every candidate is probed.
type opaqueSizer struct{ cost.Sizer }

// solveFresh is the reference solveShard is pinned against: the task's
// instance built and cached from nothing (every single size probed again),
// solved with every candidate probed, and its transmit bytes sized from
// the original member queries.
func solveFresh(t *task, proc query.MergeProcedure, algo core.Algorithm, p *Problem) {
	inst := core.NewGeomInstance(t.model, t.queries, proc, p.Estimator)
	inst.CacheSizes(nil, nil, nil, nil)
	inst.Sizer = opaqueSizer{inst.Sizer}
	inst.Budget = p.Budget
	plan := algo.Solve(inst)
	t.plan = expand(plan, t.memberSets)
	t.out = &solved{model: t.model, rects: t.rects, plan: plan, cost: inst.Cost(plan),
		bytes: transmitBytes(t.plan, p.Queries, proc, p.Estimator)}
}

// TestSolveShardMatchesFreshSolve runs 200 rounds of churn through full
// and incremental plans at parallelism 1 and 4, each planned twice: by
// Plan and by the same pipeline on solveFresh. Allocation, plans, costs
// and transmit bytes must be equal to the bit, and so must what each
// keeps for the next replan. Tuples arrive between rounds, so a single
// size inherited from the previous plan is stale and no task may take it.
func TestSolveShardMatchesFreshSolve(t *testing.T) {
	rel := frozenRelation(12, 8000)
	est := relation.Exact{Rel: rel}
	arrivals := rand.New(rand.NewSource(16))
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	for _, incremental := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			w := newPopulation(13, 50, 4)
			var prev, prevRef *Result
			for round := 0; round < rounds; round++ {
				p := w.problem(8, est, nil)
				p.Parallelism = par
				ref := *p
				if incremental {
					p.Prev, ref.Prev = prev, prevRef
				}
				got, err := Plan(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plan(&ref, solveFresh)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.ChannelPlans, want.ChannelPlans) || !reflect.DeepEqual(got.ClientChannel, want.ClientChannel) {
					t.Fatalf("incremental=%v par=%d round %d: plans differ from the fresh solve", incremental, par, round)
				}
				if got.EstimatedCost != want.EstimatedCost || got.InitialCost != want.InitialCost || got.TransmitBytes != want.TransmitBytes {
					t.Fatalf("incremental=%v par=%d round %d: costs %v/%v/%v, fresh solve %v/%v/%v", incremental, par, round,
						got.EstimatedCost, got.InitialCost, got.TransmitBytes, want.EstimatedCost, want.InitialCost, want.TransmitBytes)
				}
				if !reflect.DeepEqual(got.tasks, want.tasks) || got.Stats != want.Stats {
					t.Fatalf("incremental=%v par=%d round %d: kept tasks or stats differ", incremental, par, round)
				}
				prev, prevRef = got, want
				for k := 0; k < 1+w.rng.Intn(4); k++ {
					w.churn()
				}
				for k := 0; k < 50; k++ {
					rel.Insert(geom.Pt(arrivals.Float64()*1000, arrivals.Float64()*1000), make([]byte, 16))
				}
			}
		}
	}
}

// countingSizer is an exact estimator that counts its rectangle probes per
// rectangle. It is not relation.Exact, so tasks get neither a rank table
// nor the disjoint bound: every size they need is a probe it sees.
type countingSizer struct {
	relation.Exact
	mu     sync.Mutex
	probes map[geom.Rect]int
}

func (c *countingSizer) SizeBytesRect(r geom.Rect) float64 {
	c.mu.Lock()
	c.probes[r]++
	c.mu.Unlock()
	return c.Exact.SizeBytesRect(r)
}

func (c *countingSizer) SizeBytes(region geom.Region) float64 {
	if r, ok := region.(geom.Rect); ok {
		return c.SizeBytesRect(r)
	}
	return c.Exact.SizeBytes(region)
}

func (c *countingSizer) total() int {
	n := 0
	for _, k := range c.probes {
		n += k
	}
	return n
}

// TestPlanProbesEachRectangleOnce pins the probe-once rule on rectangle
// queries no two of which contain one another, so no merged rectangle is
// also a query's. In every plan, full or incremental, a query rectangle is
// probed at most once per query holding it: by stage 0, or, when stage 0
// took Prev's size, by the one task that needs it. Without aggregation
// every probe is stage 0's or a memo miss of a task: transmit bytes probe
// nothing.
func TestPlanProbesEachRectangleOnce(t *testing.T) {
	rel := frozenRelation(14, 8000)
	rng := rand.New(rand.NewSource(15))
	subs := make([][]geom.Rect, 60)
	var all []geom.Rect
	fresh := func() geom.Rect {
		for {
			r := geom.RectWH(rng.Float64()*900, rng.Float64()*900, 5+rng.Float64()*95, 5+rng.Float64()*95)
			nested := false
			for _, o := range all {
				nested = nested || o.ContainsRect(r) || r.ContainsRect(o)
			}
			if !nested {
				all = append(all, r)
				return r
			}
		}
	}
	for c := range subs {
		for k := 0; k < 4; k++ {
			subs[c] = append(subs[c], fresh())
		}
	}
	for _, aggregate := range []bool{false, true} {
		var prev *Result
		for round := 0; round < 30; round++ {
			est := &countingSizer{Exact: relation.Exact{Rel: rel}, probes: make(map[geom.Rect]int)}
			var misses metrics.Counter
			p := &Problem{
				Channels: 4, Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 2}, Estimator: est,
				Config: Config{Enabled: true, ShardBits: 3, Aggregate: aggregate}, MemoMisses: &misses,
			}
			if round%2 == 1 {
				p.Prev = prev
			}
			holders := make(map[geom.Rect]int)
			for c, rs := range subs {
				var idx []int
				for _, r := range rs {
					idx = append(idx, len(p.Queries))
					p.Queries = append(p.Queries, query.Range(query.ID(len(p.Queries)), r))
					holders[r]++
				}
				p.Clients = append(p.Clients, idx)
				p.ClientIDs = append(p.ClientIDs, c)
			}
			res, err := Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			for r, k := range holders {
				if est.probes[r] > k {
					t.Fatalf("aggregate=%v round %d: %v probed %d times for %d queries", aggregate, round, r, est.probes[r], k)
				}
			}
			if !aggregate && p.Prev == nil {
				if want := len(p.Queries) + int(misses.Load()); est.total() != want {
					t.Fatalf("round %d: %d probes, want %d single sizes + %d memo misses", round, est.total(), len(p.Queries), misses.Load())
				}
			}
			prev = res
			c := rng.Intn(len(subs))
			subs[c][rng.Intn(len(subs[c]))] = fresh()
		}
	}
}
