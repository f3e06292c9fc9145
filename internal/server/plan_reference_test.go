package server

import (
	"fmt"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/shard"
)

// referencePlan is the server's plan from before every plan ran the
// planning pipeline, kept as the oracle of the pipeline at one shard
// without aggregation: one instance over every query, the merging
// algorithm on it alone on one channel, and §8's channel allocation with
// the allocation's per-channel plans and costs on more. On one client it
// plans as on one channel, under the raw model (the pipeline charges the
// channel's listener and maintenance; see TestOneClientManyChannels).
func referencePlan(s *Server) (*Cycle, error) {
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	clients, qs := snap.clients, snap.qs
	inst := core.NewGeomInstance(s.cfg.Model, qs, s.cfg.Procedure, s.cfg.Estimator)
	inst.Metrics = s.solverMetrics()
	allocate := s.net.Channels() > 1 && len(clients) > 1
	kmax := 0.0
	if allocate {
		kmax = chanalloc.MaxChannelKM(s.cfg.Model, len(clients))
	}
	inst.CacheSizes(nil, kmax, nil, nil)
	cy := &Cycle{
		Queries:       qs,
		Owners:        snap.owners,
		ClientChannel: make(map[int]int, len(clients)),
		ChannelPlans:  make([]core.Plan, s.net.Channels()),
		InitialCost:   inst.InitialCost(),
	}
	if !allocate {
		for _, id := range clients {
			cy.ClientChannel[id] = 0
		}
		plan := s.cfg.Algorithm.Solve(inst)
		cy.ChannelPlans[0] = plan
		cy.EstimatedCost = inst.Cost(plan)
		return cy, nil
	}
	prob := &chanalloc.Problem{
		Inst:     inst,
		Clients:  snap.clientQueryIdx,
		Channels: s.net.Channels(),
		Merger:   s.cfg.Algorithm,
	}
	alloc, total, err := chanalloc.Heuristic(prob, s.cfg.Strategy, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	for ci, ch := range alloc {
		cy.ClientChannel[clients[ci]] = ch
	}
	for ch, plan := range chanalloc.Plans(prob, alloc) {
		cy.ChannelPlans[ch] = plan
	}
	cy.EstimatedCost = total
	noMerge := &chanalloc.Problem{
		Inst:     inst,
		Clients:  snap.clientQueryIdx,
		Channels: s.net.Channels(),
		Merger:   core.NoMerge{},
	}
	cy.InitialCost = chanalloc.Cost(noMerge, alloc)
	return cy, nil
}

// TestShardedEquivalenceAblation pins the planning pipeline at one shard
// without aggregation, the daemon's default, to referencePlan bit for
// bit — channel plans, client channels, estimated and initial cost — on
// one and three channels, on a 60-query world under the default
// allocation strategy and on the plan-paper world under BestOfBoth.
func TestShardedEquivalenceAblation(t *testing.T) {
	worlds := map[string]func(t *testing.T, channels int) *Server{
		"60-query": func(t *testing.T, channels int) *Server {
			rel, net := buildWorld(t, channels, 2000, 11)
			t.Cleanup(net.Close)
			s, err := New(rel, net, Config{Model: testModel})
			if err != nil {
				t.Fatal(err)
			}
			subscribeWorkload(t, 13, 60, 8, 0, s)
			return s
		},
		"paper": func(t *testing.T, channels int) *Server {
			return paperWorld(t, 24, channels, 20000, shard.Config{}, nil)
		},
	}
	for name, world := range worlds {
		for _, channels := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/channels=%d", name, channels), func(t *testing.T) {
				s := world(t, channels)
				got, err := s.Plan()
				if err != nil {
					t.Fatal(err)
				}
				want, err := referencePlan(s)
				if err != nil {
					t.Fatal(err)
				}
				sameCycle(t, "plan", got, want)
				if got.EstimatedCost >= got.InitialCost {
					t.Fatalf("nothing merged (estimated %v, initial %v)", got.EstimatedCost, got.InitialCost)
				}
				if got.Info.Sharded {
					t.Fatal("a plan at one shard reports itself sharded")
				}
			})
		}
	}
}

// TestAggregateAllocatesChannels: aggregation at one shard on more than
// one channel places clients by §8's allocation, as the plan without
// aggregation does, not every client on channel 0. (Enabled is set as
// qsubd -aggregate once set it; the field is read nowhere.)
func TestAggregateAllocatesChannels(t *testing.T) {
	s := paperWorld(t, 24, 3, 20000, shard.Config{Enabled: true, Aggregate: true}, nil)
	got, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(got, 3); err != nil {
		t.Fatal(err)
	}
	want, err := referencePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for id, ch := range want.ClientChannel {
		used[ch] = true
		if got.ClientChannel[id] != ch {
			t.Fatalf("client %d on channel %d, §8 allocates it channel %d (all: %v, want %v)",
				id, got.ClientChannel[id], ch, got.ClientChannel, want.ClientChannel)
		}
	}
	if len(used) < 2 {
		t.Fatalf("§8 used %d channel(s): the test does not tell an allocation from channel 0", len(used))
	}
}

// TestOneClientManyChannels pins the one-client, many-channel edge to
// the pipeline's convention: the client listens on channel 0, its
// channel charges K6 for its one listener and KD for being used. The
// server's plan before the pipeline charged the raw model there.
func TestOneClientManyChannels(t *testing.T) {
	model := cost.Model{KM: 200, KT: 1, KU: 1, K6: 50, KD: 300}
	rel, net := buildWorld(t, 3, 2000, 11)
	defer net.Close()
	s, err := New(rel, net, Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	subscribeWorkload(t, 13, 12, 1, 0, s)
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy, 3); err != nil {
		t.Fatal(err)
	}
	if len(cy.ClientChannel) != 1 || cy.ClientChannel[0] != 0 || len(cy.ChannelPlans[1])+len(cy.ChannelPlans[2]) != 0 {
		t.Fatalf("one client placed as %v with plans %v, want channel 0 alone", cy.ClientChannel, cy.ChannelPlans)
	}
	listened := model
	listened.KM += model.K6
	inst := core.NewGeomInstance(listened, cy.Queries, s.cfg.Procedure, s.cfg.Estimator)
	if want := inst.Cost(cy.ChannelPlans[0]) + model.KD; cy.EstimatedCost != want {
		t.Fatalf("EstimatedCost %v, want %v: the channel's plan under K_M + K6 plus K_D", cy.EstimatedCost, want)
	}
	if want := inst.InitialCost() + model.KD; cy.InitialCost != want {
		t.Fatalf("InitialCost %v, want %v: singletons under K_M + K6 plus K_D", cy.InitialCost, want)
	}
	ref, err := referencePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if ref.EstimatedCost == cy.EstimatedCost {
		t.Fatal("the reference's raw-model cost equals the pipeline's: the edge is not exercised")
	}
}
