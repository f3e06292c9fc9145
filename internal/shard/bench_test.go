package shard

import (
	"fmt"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/workload"
)

// benchWorkload generates the clustered, 30%-near-duplicate workload of
// the scaling experiments (EXPERIMENTS.md "Sharded planning at scale").
func benchWorkload(n int) ([]query.Query, [][]int) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 42
	cfg.DupF = 0.3
	gen := workload.MustNewGenerator(cfg)
	qs := gen.Queries(n)
	return qs, gen.Clients(n/50+1, qs)
}

// BenchmarkShardPlan is the BENCH_sharding.json family: the full
// pipeline (aggregate → shard → solve → stitch) over n subscriptions and
// 2^bits shards. The n100k rows are the acceptance benchmark — 100k
// subscriptions must plan in seconds. The single-shard 100k cell is
// omitted here (it degenerates to a ~2.4k-representative global
// PairMerge taking ~30s; the experiment harness measures it once for
// the scaling table instead of gating every bench run on it).
func BenchmarkShardPlan(b *testing.B) {
	for _, tc := range []struct {
		n, bits int
	}{
		{1000, 0}, {1000, 2}, {1000, 4},
		{10000, 0}, {10000, 2}, {10000, 4},
		{100000, 2}, {100000, 4},
	} {
		qs, clients := benchWorkload(tc.n)
		b.Run(fmt.Sprintf("n%d_s%d", tc.n, 1<<tc.bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := &Problem{
					Queries:   qs,
					Clients:   clients,
					Channels:  1,
					Model:     cost.DefaultModel(),
					Estimator: testEstimator(),
					Algorithm: core.PairMerge{},
					Config:    Config{Enabled: true, ShardBits: tc.bits, Aggregate: true},
				}
				if _, err := Plan(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardPlanMultiChannel exercises the channel-balancing stage:
// LPT shard spreading plus majority-vote client assignment.
func BenchmarkShardPlanMultiChannel(b *testing.B) {
	qs, clients := benchWorkload(10000)
	for i := 0; i < b.N; i++ {
		p := &Problem{
			Queries:   qs,
			Clients:   clients,
			Channels:  8,
			Model:     cost.DefaultModel(),
			Estimator: testEstimator(),
			Algorithm: core.PairMerge{},
			Config:    Config{Enabled: true, ShardBits: 6, Aggregate: true},
		}
		if _, err := Plan(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregate isolates the aggregation pass.
func BenchmarkAggregate(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		qs, _ := benchWorkload(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Aggregate(qs, 0)
			}
		})
	}
}

// BenchmarkShardReplanChurn is the churn-sharded planning step on its
// own: 400 clustered queries of 100 clients, 8 channels, 16 shard cells,
// aggregation, exact sizes over 40k tuples, and 2% of the subscriptions
// swapped before every plan. "full" plans each population from scratch,
// as every sharded replan did before tasks were reusable; "incremental"
// hands the previous result in as Problem.Prev.
func BenchmarkShardReplanChurn(b *testing.B) {
	est := relation.Exact{Rel: frozenRelation(1, 40000)}
	for _, incremental := range []bool{false, true} {
		name := "full"
		if incremental {
			name = "incremental"
		}
		b.Run(name, func(b *testing.B) {
			w := newPopulation(1, 100, 4)
			prev, err := Plan(w.problem(8, est, nil))
			if err != nil {
				b.Fatal(err)
			}
			solved := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ids := w.ids()
				for k := 0; k < 8; k++ {
					id := ids[w.rng.Intn(len(ids))]
					w.subs[id][w.rng.Intn(len(w.subs[id]))] = w.gen.Queries(1)[0]
				}
				p := w.problem(8, est, nil)
				if incremental {
					p.Prev = prev
				}
				b.StartTimer()
				if prev, err = Plan(p); err != nil {
					b.Fatal(err)
				}
				solved += prev.Stats.Shards - prev.Stats.Reused
			}
			b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
		})
	}
}
