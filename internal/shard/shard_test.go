package shard

import (
	"reflect"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/procs"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/workload"
)

func testEstimator() relation.Uniform {
	return relation.Uniform{Density: 0.05, BytesPerTuple: 32}
}

// testProblem builds a Problem over a clustered workload of n queries
// split across p clients.
func testProblem(n, p, channels int, cfg Config, algo core.Algorithm) (*Problem, []query.Query) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = int64(n + channels)
	gen := workload.MustNewGenerator(wcfg)
	qs := gen.Queries(n)
	return &Problem{
		Queries:   qs,
		Clients:   gen.Clients(p, qs),
		Channels:  channels,
		Model:     cost.DefaultModel(),
		Estimator: testEstimator(),
		Algorithm: algo,
		Config:    cfg,
	}, qs
}

// globalSolve is the global single-channel solve: memoized geometric
// instance, one Algorithm.Solve, plan cost and singleton baseline from
// the same sizer.
func globalSolve(p *Problem) (core.Plan, float64, float64) {
	inst := core.NewGeomInstance(p.Model, p.Queries, query.BoundingRect{}, p.Estimator)
	memo := cost.NewMemo(inst.Sizer, inst.N)
	inst.Sizer = memo
	plan := p.Algorithm.Solve(inst)
	return plan, inst.Cost(plan), inst.InitialCost()
}

// TestPlanUnshardedEquivalence is the ablation pinning the pipeline to
// the existing global solve: one shard, aggregation off, one channel
// must reproduce the exact plan and bit-identical costs.
func TestPlanUnshardedEquivalence(t *testing.T) {
	for _, algo := range []core.Algorithm{core.PairMerge{}, core.DirectedSearch{Seed: 42, T: 4}} {
		for _, n := range []int{1, 17, 120} {
			p, _ := testProblem(n, 5, 1, Config{}, algo)
			res, err := Plan(p)
			if err != nil {
				t.Fatalf("%s n=%d: %v", algo.Name(), n, err)
			}
			wantPlan, wantCost, wantInitial := globalSolve(p)
			if !reflect.DeepEqual(res.ChannelPlans[0], wantPlan) {
				t.Fatalf("%s n=%d: sharded plan differs from global plan:\n  got  %v\n  want %v",
					algo.Name(), n, res.ChannelPlans[0], wantPlan)
			}
			if res.EstimatedCost != wantCost {
				t.Fatalf("%s n=%d: EstimatedCost %v != global %v (must be bit-identical)",
					algo.Name(), n, res.EstimatedCost, wantCost)
			}
			if res.InitialCost != wantInitial {
				t.Fatalf("%s n=%d: InitialCost %v != global %v (must be bit-identical)",
					algo.Name(), n, res.InitialCost, wantInitial)
			}
			if res.Stats.Reps != n || res.Stats.Collapsed != 0 || res.Stats.Shards != 1 {
				t.Fatalf("%s n=%d: ablation stats %+v", algo.Name(), n, res.Stats)
			}
		}
	}
}

// TestPlanDeterministicAcrossParallelism pins the determinism contract:
// a fixed problem yields the identical Result at any GOMAXPROCS, which
// sizes the shard pool and the DirectedSearch restarts inside it.
func TestPlanDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{ShardBits: 4, Aggregate: true}
	base, _ := testProblem(600, 24, 3, cfg, core.DirectedSearch{Seed: 7, T: 2})
	var want *Result
	for _, par := range []int{1, 2, 4, 8} {
		p := *base
		var res *Result
		var err error
		procs.At(par, func() { res, err = Plan(&p) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", par, err)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("result differs between GOMAXPROCS 1 and %d", par)
		}
	}
}

// TestPlanExactCover verifies the stitching invariant behind the
// aggregation exactness contract: every original query index lands in
// exactly one plan set, on the channel its owning client listens to.
func TestPlanExactCover(t *testing.T) {
	for _, tc := range []struct {
		n, p, channels int
		cfg            Config
	}{
		{200, 10, 1, Config{ShardBits: 3, Aggregate: true}},
		{500, 25, 4, Config{ShardBits: 5, Aggregate: true}},
		{300, 12, 2, Config{ShardBits: 0, Aggregate: false}},
	} {
		p, _ := testProblem(tc.n, tc.p, tc.channels, tc.cfg, core.PairMerge{})
		res, err := Plan(p)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkExactCover(t, p, res)
		if res.EstimatedCost <= 0 || res.InitialCost <= 0 {
			t.Fatalf("%+v: non-positive costs %+v", tc, res)
		}
	}
}

// checkExactCover fails the test unless every query index of the problem
// lands in exactly one plan set, on the channel its client listens to.
func checkExactCover(t *testing.T, p *Problem, res *Result) {
	t.Helper()
	owner := make([]int, len(p.Queries))
	for i := range owner {
		owner[i] = -1
	}
	for ch, plan := range res.ChannelPlans {
		for _, set := range plan {
			for _, q := range set {
				if q < 0 || q >= len(owner) {
					t.Fatalf("query index %d out of range", q)
				}
				if owner[q] != -1 {
					t.Fatalf("query %d appears on channels %d and %d", q, owner[q], ch)
				}
				owner[q] = ch
			}
		}
	}
	for q, ch := range owner {
		if ch == -1 {
			t.Fatalf("query %d missing from every plan", q)
		}
	}
	for ci, subs := range p.Clients {
		ch := res.ClientChannel[ci]
		if ch < 0 || ch >= len(res.ChannelPlans) {
			t.Fatalf("client %d on invalid channel %d", ci, ch)
		}
		for _, q := range subs {
			if owner[q] != ch {
				t.Fatalf("client %d listens on channel %d but query %d is published on %d", ci, ch, q, owner[q])
			}
		}
	}
}

// TestPlanAggregationReducesWork checks aggregation actually collapses a
// duplicate-heavy workload and that the sharded estimate still beats the
// no-merging baseline.
func TestPlanAggregationReducesWork(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 9
	wcfg.DupF = 0.5
	gen := workload.MustNewGenerator(wcfg)
	qs := gen.Queries(1000)
	p := &Problem{
		Queries:   qs,
		Clients:   gen.Clients(20, qs),
		Channels:  2,
		Model:     cost.DefaultModel(),
		Estimator: testEstimator(),
		Config:    Config{ShardBits: 4, Aggregate: true},
	}
	res, err := Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Collapsed == 0 {
		t.Fatal("duplicate-heavy workload collapsed nothing")
	}
	if res.Stats.Reps >= len(qs) {
		t.Fatalf("aggregation kept %d reps for %d queries", res.Stats.Reps, len(qs))
	}
	if res.EstimatedCost >= res.InitialCost {
		t.Fatalf("sharded plan estimate %.1f not below no-merge baseline %.1f",
			res.EstimatedCost, res.InitialCost)
	}
}

func TestPlanErrors(t *testing.T) {
	est := testEstimator()
	if _, err := Plan(&Problem{Estimator: est}); err == nil {
		t.Fatal("no error for empty query list")
	}
	qs := workload.MustNewGenerator(workload.DefaultConfig()).Queries(4)
	if _, err := Plan(&Problem{Queries: qs, Clients: [][]int{{0, 1, 2, 3}}}); err == nil {
		t.Fatal("no error for nil estimator")
	}
	if _, err := Plan(&Problem{Queries: qs, Estimator: est}); err == nil {
		t.Fatal("no error for missing clients")
	}
	if _, err := Plan(&Problem{Queries: qs, Estimator: est, Clients: [][]int{{0, 9}}}); err == nil {
		t.Fatal("no error for out-of-range client subscription")
	}
	one := [][]int{{0, 1, 2, 3}}
	if _, err := Plan(&Problem{Queries: qs, Estimator: est, Clients: one, ClientIDs: []int{1, 2}}); err == nil {
		t.Fatal("no error for two client ids naming one client")
	}
	prev, err := Plan(&Problem{Queries: qs, Estimator: est, Clients: one})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(&Problem{Queries: qs, Estimator: est, Clients: one, Prev: prev}); err == nil {
		t.Fatal("no error for a replan that does not say who its clients are")
	}
}
