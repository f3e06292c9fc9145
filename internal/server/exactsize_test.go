package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
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

// probeExact is relation.Exact under another type: still a RectSizer, so
// the solvers take the rectangle path, but every merged size is one
// estimator probe behind a cost.Memo, as before the rank table.
type probeExact struct{ relation.Exact }

// paperConfig is the server configuration of the benchmark's plan-paper
// workload: the paper's cost model and BestOfBoth allocation.
func paperConfig(sharding shard.Config) Config {
	return Config{
		Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 2},
		Strategy: chanalloc.BestOfBoth,
		Seed:     1,
		Sharding: sharding,
	}
}

// paperServer builds the relation and server of the plan-paper workload
// (uniform tuples on a 64×64 grid) with nobody subscribed; a nil est
// leaves the server's default estimator, relation.Exact.
func paperServer(tb testing.TB, channels, tuples int, scfg Config, est func(*relation.Relation) relation.Estimator) *Server {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.CF, cfg.Seed = 0, 4
	rel := relation.MustNew(cfg.DB, 64, 64)
	for _, p := range workload.MustNewGenerator(cfg).Points(tuples) {
		rel.Insert(p, make([]byte, 16))
	}
	net, err := multicast.NewNetwork(channels)
	if err != nil {
		tb.Fatal(err)
	}
	if est != nil {
		scfg.Estimator = est(rel)
	}
	s, err := New(rel, net, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// subscribePairs replaces the server's subscriptions with the queries,
// two per client, clients numbered from 0.
func subscribePairs(tb testing.TB, s *Server, prev, qs []query.Query) {
	tb.Helper()
	for i, q := range prev {
		s.Unsubscribe(i/2, q.ID)
	}
	for i, q := range qs {
		if err := s.Subscribe(i/2, q); err != nil {
			tb.Fatal(err)
		}
	}
}

// paperWorld builds the planning world of the benchmark's plan-paper
// workload (clustered queries over uniform tuples on a 64×64 grid, paper
// cost model, BestOfBoth allocation) with the given estimator; a nil
// estimator leaves the server's default, relation.Exact.
func paperWorld(tb testing.TB, clients, channels, tuples int, sharding shard.Config, est func(*relation.Relation) relation.Estimator) *Server {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = 3
	s := paperServer(tb, channels, tuples, paperConfig(sharding), est)
	subscribePairs(tb, s, nil, workload.MustNewGenerator(cfg).Queries(2*clients))
	return s
}

// sameCycle fails the test unless the two cycles are the same plan, to
// the bit.
func sameCycle(t *testing.T, stage string, got, want *Cycle) {
	t.Helper()
	if got.EstimatedCost != want.EstimatedCost || got.InitialCost != want.InitialCost {
		t.Fatalf("%s: costs differ: estimated %v vs %v, initial %v vs %v", stage,
			got.EstimatedCost, want.EstimatedCost, got.InitialCost, want.InitialCost)
	}
	if !reflect.DeepEqual(got.ClientChannel, want.ClientChannel) ||
		!reflect.DeepEqual(got.ChannelPlans, want.ChannelPlans) ||
		!reflect.DeepEqual(got.Owners, want.Owners) ||
		!reflect.DeepEqual(got.Queries, want.Queries) {
		t.Fatalf("%s: cycles differ:\ngot:  %v %v\nwant: %v %v", stage,
			got.ClientChannel, got.ChannelPlans, want.ClientChannel, want.ChannelPlans)
	}
}

// TestPlanIdenticalWithScanEstimator pins that the byte aggregate and the
// rank table change what a size costs and nothing else: Plan returns the
// same cycle, to the bit, as with an estimator that scans — and again
// after inserts and deletes, because the table, like the memo it
// replaces, is a snapshot taken by the Plan call that uses it.
func TestPlanIdenticalWithScanEstimator(t *testing.T) {
	scan := func(rel *relation.Relation) relation.Estimator { return scanExact{rel} }
	for name, sharding := range map[string]shard.Config{
		"single":  {},
		"sharded": {Enabled: true, ShardBits: 2, Aggregate: true},
	} {
		t.Run(name, func(t *testing.T) {
			fast := paperWorld(t, 24, 3, 20000, sharding, nil)
			slow := paperWorld(t, 24, 3, 20000, sharding, scan)
			plan := func(stage string) *Cycle {
				got, err := fast.Plan()
				if err != nil {
					t.Fatal(err)
				}
				want, err := slow.Plan()
				if err != nil {
					t.Fatal(err)
				}
				sameCycle(t, stage, got, want)
				if got.EstimatedCost >= got.InitialCost {
					t.Fatalf("%s: nothing merged (estimated %v, initial %v): the test exercises no merged-size probe",
						stage, got.EstimatedCost, got.InitialCost)
				}
				return got
			}
			first := plan("first plan")

			// The same writes to both relations: tuples inside, on the
			// edges and on the corners of subscribed rectangles, and a
			// tenth of the original tuples deleted.
			rng := rand.New(rand.NewSource(9))
			for _, q := range first.Queries {
				r := q.Region.(geom.Rect)
				for _, p := range []geom.Point{
					{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY + rng.Float64()*r.Height()},
					{X: r.MinX + rng.Float64()*r.Width(), Y: r.MinY + rng.Float64()*r.Height()},
				} {
					payload := make([]byte, rng.Intn(64))
					fast.Relation().Insert(p, payload)
					slow.Relation().Insert(p, payload)
				}
			}
			for k := 0; k < 2000; k++ {
				id := uint64(1 + rng.Intn(20000))
				if fast.Relation().Delete(id) != slow.Relation().Delete(id) {
					t.Fatal("the two relations diverged")
				}
			}
			second := plan("after inserts and deletes")
			if second.InitialCost == first.InitialCost {
				t.Fatalf("the writes did not move the sizes (initial cost %v twice)", first.InitialCost)
			}
		})
	}
}

// TestRankTablePlansEqualProbePath plans 300 populations of the plan-paper
// generator (fewer under -short and -race) twice, with merged sizes from
// the rank table and with one estimator probe each behind a memo, and
// requires the same cycle every time.
func TestRankTablePlansEqualProbePath(t *testing.T) {
	populations := 300
	if testing.Short() || raceEnabled {
		populations = 30
	}
	probe := func(rel *relation.Relation) relation.Estimator { return probeExact{relation.Exact{Rel: rel}} }
	table := paperServer(t, 3, 20000, paperConfig(shard.Config{}), nil)
	probed := paperServer(t, 3, 20000, paperConfig(shard.Config{}), probe)
	gen := workload.MustNewGenerator(workload.DefaultConfig())
	var prev []query.Query
	merged := 0
	for k := 0; k < populations; k++ {
		qs := gen.Queries(48)
		subscribePairs(t, table, prev, qs)
		subscribePairs(t, probed, prev, qs)
		prev = qs
		got, err := table.Plan()
		if err != nil {
			t.Fatal(err)
		}
		want, err := probed.Plan()
		if err != nil {
			t.Fatal(err)
		}
		sameCycle(t, fmt.Sprintf("population %d", k), got, want)
		if got.EstimatedCost < got.InitialCost {
			merged++
		}
	}
	if merged < populations/2 {
		t.Fatalf("only %d of %d populations merged anything", merged, populations)
	}
}

// TestRankTableProbeCountsRepeat pins the determinism the table buys. On
// the plan-paper configuration at Parallelism 2 the two climbs of
// BestOfBoth run concurrently; on the table they share nothing they
// write, so a Plan makes the same estimator probes every time (none past
// the table's build) and returns the same cycle. On the memo fallback the
// climbs still race to fill the shared memo and may both probe a set, so
// only an upper bound on its misses holds: that defect stays open there.
func TestRankTableProbeCountsRepeat(t *testing.T) {
	cat := metrics.NewCatalog(3)
	scfg := paperConfig(shard.Config{})
	scfg.Parallelism, scfg.Metrics = 2, cat
	s := paperServer(t, 3, 20000, scfg, nil)
	cfg := workload.DefaultConfig()
	cfg.Seed = 3
	subscribePairs(t, s, nil, workload.MustNewGenerator(cfg).Queries(48))
	var first *Cycle
	for run := 0; run < 20; run++ {
		hits, misses := cat.MemoHits.Load(), cat.MemoMisses.Load()
		cy, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = cy
		}
		sameCycle(t, fmt.Sprintf("run %d", run), cy, first)
		if got := cat.MemoMisses.Load() - misses; got != 0 {
			t.Fatalf("run %d: %d estimator probes for merged sizes on the table path", run, got)
		}
		// The engines report per solve; how many group solves the two
		// climbs duplicate is theirs to race on, so hits only have a floor.
		if got := cat.MemoHits.Load() - hits; got < 48*47/2 {
			t.Fatalf("run %d: %d table lookups counted, fewer than one exact pair-merge seed", run, got)
		}
	}
}

// TestPlanPaperAllocs pins the allocation budget of one Server.Plan on the
// plan-paper world: channel allocation solves its groups in place on
// pooled engines, so what is left is the plan's own state and results.
func TestPlanPaperAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := paperWorld(t, 24, 3, 20000, shard.Config{}, nil)
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Plan(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1000 {
		t.Fatalf("Plan made %v allocations, want at most 1000", allocs)
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
