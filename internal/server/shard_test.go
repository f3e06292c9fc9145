package server

import (
	"math"
	"testing"

	"qsub/internal/client"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// subscribeWorkload subscribes nq clustered queries across nc clients on
// both servers and returns the client set (for delivery tests).
func subscribeWorkload(t *testing.T, seed int64, nq, nc int, dupF float64, servers ...*Server) map[int]*client.Client {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.DupF = dupF
	gen := workload.MustNewGenerator(cfg)
	qs := gen.Queries(nq)
	clients := map[int]*client.Client{}
	for i, q := range qs {
		id := i % nc
		if clients[id] == nil {
			clients[id] = client.New(id)
		}
		clients[id].AddQuery(q)
		for _, s := range servers {
			if err := s.Subscribe(id, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	return clients
}

func TestNaNRegionRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]geom.Region{
		"MinX": geom.R(nan, 100, 300, 300), "MinY": geom.R(100, nan, 300, 300),
		"MaxX": geom.R(100, 100, nan, 300), "MaxY": geom.R(100, 100, 300, nan),
		"polygon": geom.Polygon{geom.Pt(0, 0), geom.Pt(500, 0), geom.Pt(nan, 500)},
		"union":   geom.Union{geom.R(0, 0, 10, 10), geom.R(20, 20, 30, nan)},
	}
	for name, sharding := range map[string]shard.Config{
		"one-shard":           {},
		"one-shard/aggregate": {Aggregate: true},
		"sharded":             {ShardBits: 3, Aggregate: true},
	} {
		rel, net := buildWorld(t, 3, 2000, 21)
		s, err := New(rel, net, Config{Model: testModel, Sharding: sharding})
		if err != nil {
			t.Fatal(err)
		}
		clients := subscribeWorkload(t, 23, 48, 6, 0.4, s)
		for edge, region := range bad {
			ok := query.Range(1, geom.R(0, 0, 50, 50))
			if err := s.Subscribe(99, ok, query.Query{ID: 2, Region: region}); err == nil {
				t.Fatalf("%s: a region with a NaN %s was accepted", name, edge)
			}
		}
		if n := s.SubscriptionCount(); n != 48 {
			t.Fatalf("%s: %d subscriptions registered, want the 48 honest ones", name, n)
		}
		if err := s.Subscribe(98, query.Range(1, geom.R(900, 900, inf, inf))); err != nil {
			t.Fatalf("%s: an infinite edge was refused: %v", name, err)
		}
		clients[98] = client.New(98)
		runCycle(t, s, clients)
		for id, c := range clients {
			for _, q := range c.Queries() {
				if got, want := len(c.Answer(q.ID)), len(rel.Search(q.Region)); got != want {
					t.Fatalf("%s: client %d query %d extracted %d tuples, want %d", name, id, q.ID, got, want)
				}
			}
		}
		net.Close()
	}
}

// TestShardedEndToEndExactness pins the aggregation exactness contract
// at the system level: with aggregation and sharding fully enabled on a
// duplicate-heavy workload, every client's extracted answer still equals
// the answer of running its query directly against the relation.
func TestShardedEndToEndExactness(t *testing.T) {
	for _, channels := range []int{1, 3} {
		rel, net := buildWorld(t, channels, 2000, 21)
		defer net.Close()
		s, err := New(rel, net, Config{
			Model: testModel,
			Sharding: shard.Config{
				ShardBits: 3,
				Aggregate: true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		clients := subscribeWorkload(t, 23, 48, 6, 0.4, s)
		cy := runCycle(t, s, clients)
		if err := ValidateCycle(cy, channels); err != nil {
			t.Fatalf("channels=%d: %v", channels, err)
		}
		for id, c := range clients {
			for _, q := range c.Queries() {
				got := c.Answer(q.ID)
				want := rel.Search(q.Region)
				if len(got) != len(want) {
					t.Fatalf("channels=%d client %d query %d: got %d tuples, want %d",
						channels, id, q.ID, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("channels=%d client %d query %d: tuple mismatch at %d",
							channels, id, q.ID, i)
					}
				}
			}
		}
	}
}
