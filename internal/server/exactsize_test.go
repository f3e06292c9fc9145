package server

import (
	"reflect"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/relation"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// scanExact is the exact estimator without the relation's byte aggregate:
// it sums the tuples a full index scan returns. Not being a RectSizer, it
// also keeps the solvers on the general merge-procedure path.
type scanExact struct{ rel *relation.Relation }

func (e scanExact) SizeBytes(region geom.Region) float64 {
	n := 0
	for _, t := range e.rel.Search(region) {
		n += t.Size()
	}
	return float64(n)
}

// paperWorld builds the planning world of the benchmark's plan-paper
// workload (clustered queries over uniform tuples on a 64×64 grid, paper
// cost model, BestOfBoth allocation) with the given estimator; a nil
// estimator leaves the server's default, relation.Exact.
func paperWorld(tb testing.TB, clients, channels, tuples int, sharding shard.Config, est func(*relation.Relation) relation.Estimator) *Server {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = 3
	qs := workload.MustNewGenerator(cfg).Queries(2 * clients)
	cfg.CF, cfg.Seed = 0, 4
	rel := relation.MustNew(cfg.DB, 64, 64)
	for _, p := range workload.MustNewGenerator(cfg).Points(tuples) {
		rel.Insert(p, make([]byte, 16))
	}
	net, err := multicast.NewNetwork(channels)
	if err != nil {
		tb.Fatal(err)
	}
	scfg := Config{
		Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 2},
		Strategy: chanalloc.BestOfBoth,
		Seed:     1,
		Sharding: sharding,
	}
	if est != nil {
		scfg.Estimator = est(rel)
	}
	s, err := New(rel, net, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		if err := s.Subscribe(c, qs[2*c], qs[2*c+1]); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestPlanIdenticalWithScanEstimator pins that the byte aggregate changes
// what a size probe costs and nothing else: Plan returns the same cycle,
// to the bit, as with an estimator that scans.
func TestPlanIdenticalWithScanEstimator(t *testing.T) {
	scan := func(rel *relation.Relation) relation.Estimator { return scanExact{rel} }
	for name, sharding := range map[string]shard.Config{
		"single":  {},
		"sharded": {Enabled: true, ShardBits: 2, Aggregate: true},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := paperWorld(t, 24, 3, 20000, sharding, nil).Plan()
			if err != nil {
				t.Fatal(err)
			}
			want, err := paperWorld(t, 24, 3, 20000, sharding, scan).Plan()
			if err != nil {
				t.Fatal(err)
			}
			if got.EstimatedCost != want.EstimatedCost || got.InitialCost != want.InitialCost {
				t.Fatalf("costs differ: estimated %v vs %v, initial %v vs %v",
					got.EstimatedCost, want.EstimatedCost, got.InitialCost, want.InitialCost)
			}
			if got.EstimatedCost >= got.InitialCost {
				t.Fatalf("nothing merged (estimated %v, initial %v): the test exercises no merged-size probe",
					got.EstimatedCost, got.InitialCost)
			}
			if !reflect.DeepEqual(got.ClientChannel, want.ClientChannel) ||
				!reflect.DeepEqual(got.ChannelPlans, want.ChannelPlans) ||
				!reflect.DeepEqual(got.ChannelCovered, want.ChannelCovered) ||
				!reflect.DeepEqual(got.Owners, want.Owners) ||
				!reflect.DeepEqual(got.Queries, want.Queries) {
				t.Fatalf("cycles differ:\nExact: %v %v\nscan:  %v %v",
					got.ClientChannel, got.ChannelPlans, want.ClientChannel, want.ChannelPlans)
			}
		})
	}
}

// BenchmarkPlanPaper is one Server.Plan under the plan-paper workload's
// configuration, with the default Exact estimator.
func BenchmarkPlanPaper(b *testing.B) {
	s := paperWorld(b, 24, 3, 20000, shard.Config{}, nil)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := s.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}
