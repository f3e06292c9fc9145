package server

import (
	"testing"

	"qsub/internal/query"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// BenchmarkReplan is one Replan after one subscription swap on a stable
// client set, from a full plan: the daemon's steady churn cycle. Each op
// swaps the last subscription of the next client for another region under
// the same id, replans from the full plan and swaps it back (the last
// subscription, so the registry's order is the full plan's again). It
// reports the replanned cycle's estimated cost and the share of replans
// that ran incremental. Shapes: the plan-paper world (48 queries, 24
// clients, 3 channels) at one shard, and the churn-sharded world (400
// queries, 100 clients, 8 channels) at one shard and at 16 shards with
// aggregation.
func BenchmarkReplan(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 99
	alt := workload.MustNewGenerator(cfg)
	for _, shape := range []struct {
		name  string
		build func(b *testing.B) *Server
	}{
		{"paper/shards=1", func(b *testing.B) *Server { return paperWorld(b, 24, 3, 20000, shard.Config{}, nil) }},
		{"churn/shards=1", func(b *testing.B) *Server { return newChurnOracle(b, 7, shard.Config{}, nil).s }},
		{"churn/shards=16", func(b *testing.B) *Server { return newChurnOracle(b, 7, oracleSharding, nil).s }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			s := shape.build(b)
			base, err := s.Plan()
			if err != nil {
				b.Fatal(err)
			}
			// The last subscription of every client and its replacement.
			type swap struct {
				owner    int
				from, to query.Query
			}
			var swaps []swap
			for i, q := range base.Queries {
				if i+1 == len(base.Queries) || base.Owners[i+1] != base.Owners[i] {
					to := alt.Queries(1)[0]
					to.ID = q.ID
					swaps = append(swaps, swap{base.Owners[i], q, to})
				}
			}
			exchange := func(owner int, from, to query.Query) {
				if !s.Unsubscribe(owner, from.ID) {
					b.Fatalf("client %d query %d was not subscribed", owner, from.ID)
				}
				if err := s.Subscribe(owner, to); err != nil {
					b.Fatal(err)
				}
			}
			var costSum float64
			incremental := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw := swaps[i%len(swaps)]
				exchange(sw.owner, sw.from, sw.to)
				cy, err := s.Replan(base)
				if err != nil {
					b.Fatal(err)
				}
				exchange(sw.owner, sw.to, sw.from)
				costSum += cy.EstimatedCost
				if cy.Info.Mode == ModeIncremental {
					incremental++
				}
			}
			b.ReportMetric(costSum/float64(b.N), "cost/op")
			b.ReportMetric(float64(incremental)/float64(b.N), "incremental/op")
		})
	}
}
