package server

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// The oracle runs the benchmark's churn-sharded planner configuration at
// its full size (planner only, no sockets): 400 clustered queries of 100
// clients on 8 channels over 40k tuples.
const (
	oracleClients   = 100
	oraclePerClient = 4
	oracleChannels  = 8
	oracleTuples    = 40000
)

var (
	oracleModel    = cost.Model{KM: 500, KT: 1, KU: 1, K6: 2}
	oracleSharding = shard.Config{Enabled: true, ShardBits: 4, Aggregate: true}
)

// churnOracle drives one server through seeded subscription and relation
// churn and mirrors the registry, so every check can be made from the
// outside.
type churnOracle struct {
	t    *testing.T
	rng  *rand.Rand
	gen  *workload.Generator
	rel  *relation.Relation
	s    *Server
	subs map[int][]query.Query
	live []uint64 // tuple ids, for deletes
	next int      // next client id to join
}

func newChurnOracle(t *testing.T, seed int64, parallelism int, cat *metrics.Catalog) *churnOracle {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed, cfg.SF, cfg.DupF = seed, 0.02, 0.2
	o := &churnOracle{
		t: t, rng: rand.New(rand.NewSource(seed)), gen: workload.MustNewGenerator(cfg),
		rel:  relation.MustNew(geom.R(0, 0, 1000, 1000), 64, 64),
		subs: make(map[int][]query.Query), next: oracleClients,
	}
	o.insert(oracleTuples)
	net, err := multicast.NewNetwork(oracleChannels)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	o.s, err = New(o.rel, net, Config{Model: oracleModel, Sharding: oracleSharding, Parallelism: parallelism, Metrics: cat})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range o.gen.Queries(oracleClients * oraclePerClient) {
		o.subscribe(i%oracleClients, q)
	}
	return o
}

func (o *churnOracle) insert(n int) {
	for i := 0; i < n; i++ {
		o.live = append(o.live, o.rel.Insert(geom.Pt(o.rng.Float64()*1000, o.rng.Float64()*1000), make([]byte, 16)))
	}
}

func (o *churnOracle) delete(n int) {
	for i := 0; i < n; i++ {
		k := o.rng.Intn(len(o.live))
		o.rel.Delete(o.live[k])
		o.live[k] = o.live[len(o.live)-1]
		o.live = o.live[:len(o.live)-1]
	}
}

func (o *churnOracle) subscribe(id int, q query.Query) {
	if err := o.s.Subscribe(id, q); err != nil {
		o.t.Fatal(err)
	}
	o.subs[id] = append(o.subs[id], q)
}

func (o *churnOracle) unsubscribe(id, i int) {
	if !o.s.Unsubscribe(id, o.subs[id][i].ID) {
		o.t.Fatalf("client %d query %d was not subscribed", id, o.subs[id][i].ID)
	}
	o.subs[id] = append(o.subs[id][:i:i], o.subs[id][i+1:]...)
	if len(o.subs[id]) == 0 {
		delete(o.subs, id)
	}
}

// keys is the registry as a set of (owner, query id).
func (o *churnOracle) keys() map[subKey]bool {
	out := make(map[subKey]bool)
	for id, qs := range o.subs {
		for _, q := range qs {
			out[subKey{id, q.ID}] = true
		}
	}
	return out
}

// churn applies one random subscription change.
func (o *churnOracle) churn() {
	ids := make([]int, 0, len(o.subs))
	for id := range o.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	id := ids[o.rng.Intn(len(ids))]
	fresh := func() query.Query { return o.gen.Queries(1)[0] }
	switch op := o.rng.Intn(10); {
	case op < 5: // swap
		o.unsubscribe(id, o.rng.Intn(len(o.subs[id])))
		o.subscribe(id, fresh())
	case op < 7:
		o.subscribe(id, fresh())
	case op < 8:
		if len(o.subs[id]) > 1 {
			o.unsubscribe(id, o.rng.Intn(len(o.subs[id])))
		}
	case op < 9: // a client joins
		o.subscribe(o.next, fresh())
		o.subscribe(o.next, fresh())
		o.next++
	default: // a client leaves
		for len(o.subs[id]) > 0 {
			o.unsubscribe(id, 0)
		}
	}
}

// check holds a cycle against the mirrored registry: structurally valid,
// exactly the current subscriptions, every query in exactly one set and
// that set on its owner's channel.
func (o *churnOracle) check(cy *Cycle) {
	o.t.Helper()
	if err := ValidateCycle(cy, oracleChannels); err != nil {
		o.t.Fatal(err)
	}
	want := 0
	for id, qs := range o.subs {
		want += len(qs)
		if _, ok := cy.ClientChannel[id]; !ok {
			o.t.Fatalf("client %d has no channel", id)
		}
	}
	if len(cy.Queries) != want || len(cy.ClientChannel) != len(o.subs) {
		o.t.Fatalf("cycle plans %d queries of %d clients, registry holds %d of %d", len(cy.Queries), len(cy.ClientChannel), want, len(o.subs))
	}
	seen := make([]int, len(cy.Queries))
	for ch, plan := range cy.ChannelPlans {
		for _, set := range plan {
			for _, q := range set {
				seen[q]++
				if owner := cy.Owners[q]; cy.ClientChannel[owner] != ch {
					o.t.Fatalf("query %d of client %d planned on channel %d, its owner listens on %d", q, owner, ch, cy.ClientChannel[owner])
				}
			}
		}
	}
	for q, n := range seen {
		if n != 1 {
			o.t.Fatalf("query %d is in %d sets", q, n)
		}
	}
}

// currentCost prices a cycle's plans under the estimator as it is now,
// at original-query granularity, with Plan's per-channel conventions.
func (o *churnOracle) currentCost(cy *Cycle) float64 {
	listeners := make([]int, oracleChannels)
	for _, ch := range cy.ClientChannel {
		listeners[ch]++
	}
	total := 0.0
	for ch, plan := range cy.ChannelPlans {
		if len(plan) == 0 {
			continue
		}
		model := oracleModel
		model.KM += model.K6 * float64(listeners[ch])
		inst := core.NewGeomInstance(model, cy.Queries, query.BoundingRect{}, relation.Exact{Rel: o.rel})
		total += inst.Cost(plan) + model.KD
	}
	return total
}

// TestReplanChurnOracle replays 200 rounds of seeded churn — swaps,
// subscribes, unsubscribes, clients joining and leaving, relation inserts
// and deletes in between — through Replan on the churn-sharded
// configuration. Every round the cycle must hold against the registry,
// keep every client that was already there on its channel unless the
// plan was a full one, and report the mode the quarter rule dictates
// (changes accumulated since the last full plan); every 10th round a
// fresh Plan of the same subscriptions prices the inherited plans, and
// over the run they must cost within 1% of it under current sizes.
func TestReplanChurnOracle(t *testing.T) {
	for _, par := range []int{1, 4} {
		cat := metrics.NewCatalog(oracleChannels)
		o := newChurnOracle(t, 7, par, cat)
		prev, err := o.s.Replan(nil)
		if err != nil {
			t.Fatal(err)
		}
		o.check(prev)
		if prev.Info.Mode != ModeFull || prev.Info.ShardsReused != 0 || prev.Info.ShardsSolved == 0 {
			t.Fatalf("Replan(nil) reports %+v, want a full plan", prev.Info)
		}
		accumulated, fulls, incrementals := 0, 0, 0
		var inherited, fresh float64
		for round := 1; round <= 200; round++ {
			before := o.keys()
			for k := 0; k < 2+o.rng.Intn(6); k++ {
				o.churn()
			}
			changed := 0 // entries added plus entries removed
			after := o.keys()
			for k := range after {
				if !before[k] {
					changed++
				}
			}
			for k := range before {
				if !after[k] {
					changed++
				}
			}
			o.insert(200)
			o.delete(50)

			cy, err := o.s.Replan(prev)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			o.check(cy)
			if changed == 0 {
				if cy != prev {
					t.Fatalf("round %d: nothing changed, yet Replan built a new cycle", round)
				}
				continue
			}
			wantMode := ModeIncremental
			if accumulated += changed; 4*accumulated > len(prev.Queries) {
				wantMode, accumulated = ModeFull, 0
			}
			if cy.Info.Mode != wantMode {
				t.Fatalf("round %d: mode %q, want %q (%d changes since the last full plan of %d queries)",
					round, cy.Info.Mode, wantMode, accumulated, len(prev.Queries))
			}
			if cy.Info.Mode == ModeFull {
				fulls++
				if cy.Info.ShardsReused != 0 {
					t.Fatalf("round %d: full plan reused %d tasks", round, cy.Info.ShardsReused)
				}
			} else {
				incrementals++
				if cy.Info.ShardsReused < cy.Info.ShardsSolved {
					t.Fatalf("round %d: %d tasks solved, only %d reused after %d changes", round, cy.Info.ShardsSolved, cy.Info.ShardsReused, changed)
				}
				for id, ch := range prev.ClientChannel {
					if now, still := cy.ClientChannel[id]; still && now != ch {
						t.Fatalf("round %d: client %d moved from channel %d to %d", round, id, ch, now)
					}
				}
			}
			if round%10 == 0 {
				oracle, err := o.s.Plan()
				if err != nil {
					t.Fatal(err)
				}
				inherited += o.currentCost(cy)
				fresh += o.currentCost(oracle)
			}
			prev = cy
		}
		if fulls == 0 || incrementals < 5*fulls {
			t.Fatalf("%d full and %d incremental replans: the quarter rule should fire now and then, not mostly", fulls, incrementals)
		}
		if inherited > 1.01*fresh {
			t.Fatalf("parallelism %d: inherited plans cost %.0f under current sizes, fresh plans %.0f (+%.2f%%, bound 1%%)",
				par, inherited, fresh, 100*(inherited/fresh-1))
		}
		t.Logf("parallelism %d: %d full, %d incremental; inherited/fresh cost %.4f", par, fulls, incrementals, inherited/fresh)
		if got := cat.PlanShardsReused.Load(); got == 0 || cat.PlanShardsSolved.Load() == 0 {
			t.Fatalf("shard counters did not move: solved %d, reused %d", cat.PlanShardsSolved.Load(), got)
		}
		if got := cat.PlansIncremental.Load(); got != uint64(incrementals) {
			t.Fatalf("PlansIncremental = %d, %d incremental replans ran", got, incrementals)
		}
	}
}

// TestReplanShardedEscalations covers the sharded Replan's remaining ways
// out: nothing changed returns prev itself, and a previous cycle planned
// for another channel count, or one that carries no planner result to
// inherit from, is replanned in full and reported so.
func TestReplanShardedEscalations(t *testing.T) {
	o := newChurnOracle(t, 9, 0, nil)
	cy, err := o.s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if same, err := o.s.Replan(cy); err != nil || same != cy {
		t.Fatalf("unchanged Replan returned %p (%v), want prev %p", same, err, cy)
	}

	// The same subscriptions on a 4-channel network.
	net4, err := multicast.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net4.Close()
	s4, err := New(o.rel, net4, Config{Model: oracleModel, Sharding: oracleSharding})
	if err != nil {
		t.Fatal(err)
	}
	for id, qs := range o.subs {
		if err := s4.Subscribe(id, qs...); err != nil {
			t.Fatal(err)
		}
	}
	o.churn()
	got, err := s4.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(got, 4); err != nil {
		t.Fatal(err)
	}
	if got.Info.Mode != ModeFull || got.Info.ShardsReused != 0 {
		t.Fatalf("replan across a channel-count change reports %+v, want a full plan", got.Info)
	}

	// The planner ignores a previous result it cannot inherit from; the
	// cycle must then say "full" and start the quarter rule's count over.
	bare := &Cycle{Queries: cy.Queries, Owners: cy.Owners, ClientChannel: cy.ClientChannel,
		ChannelPlans: cy.ChannelPlans, churn: 5}
	got, err = o.s.Replan(bare)
	if err != nil {
		t.Fatal(err)
	}
	o.check(got)
	if got.Info.Mode != ModeFull || got.Info.ShardsReused != 0 || got.churn != 0 {
		t.Fatalf("replan with nothing to inherit reports %+v with churn %d, want a full plan and 0", got.Info, got.churn)
	}
	want, err := o.s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ChannelPlans, want.ChannelPlans) || got.EstimatedCost != want.EstimatedCost {
		t.Fatal("replan with nothing to inherit differs from Plan")
	}
}

// TestEstimatedTransmitBytesSharded pins the value EstimatedTransmitBytes
// hands the drift monitor to the one a recomputation gets by merging and
// sizing every set again, after a full plan and after an incremental
// replan on a frozen relation: on the sharded path, which carries the
// planner's own sum, and on the unsharded one, which sizes the regions of
// the cycle's publish schedule.
func TestEstimatedTransmitBytesSharded(t *testing.T) {
	recompute := func(cy *Cycle, rel *relation.Relation) float64 {
		total := 0.0
		for _, plan := range cy.ChannelPlans {
			for _, region := range core.MergedRegions(cy.Queries, query.BoundingRect{}, plan) {
				total += relation.Exact{Rel: rel}.SizeBytes(region)
			}
		}
		return total
	}
	o := newChurnOracle(t, 3, 0, nil)
	cy, err := o.s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.s.EstimatedTransmitBytes(cy), recompute(cy, o.rel); got != want || cy.shard.TransmitBytes != want {
		t.Fatalf("sharded full plan: estimate %v (carried %v), recomputed %v", got, cy.shard.TransmitBytes, want)
	}
	o.churn()
	cy2, err := o.s.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if cy2.Info.Mode != ModeIncremental || cy2.Info.ShardsReused == 0 {
		t.Fatalf("replan reports %+v, want an incremental one", cy2.Info)
	}
	if got, want := o.s.EstimatedTransmitBytes(cy2), recompute(cy2, o.rel); got != want {
		t.Fatalf("sharded incremental replan: estimate %v, recomputed %v", got, want)
	}

	rel, net := buildWorld(t, 3, 2000, 17)
	defer net.Close()
	s, err := New(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	subscribeWorkload(t, 19, 60, 8, 0, s)
	cy, err = s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.EstimatedTransmitBytes(cy), recompute(cy, rel); got != want {
		t.Fatalf("unsharded full plan: estimate %v, recomputed %v", got, want)
	}
	// One client swaps a subscription: same client set, so the unsharded
	// multi-channel replan repairs locally.
	owner := cy.Owners[0]
	if !s.Unsubscribe(owner, cy.Queries[0].ID) {
		t.Fatal("unsubscribe failed")
	}
	if err := s.Subscribe(owner, query.Range(9999, geom.R(100, 100, 250, 250))); err != nil {
		t.Fatal(err)
	}
	cy2, err = s.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if cy2.Info.Mode != ModeIncremental {
		t.Fatalf("unsharded replan reports %+v, want an incremental one", cy2.Info)
	}
	if got, want := s.EstimatedTransmitBytes(cy2), recompute(cy2, rel); got != want {
		t.Fatalf("unsharded incremental replan: estimate %v, recomputed %v", got, want)
	}
}
