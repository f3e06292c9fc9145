package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/client"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

var testModel = cost.Model{KM: 200, KT: 1, KU: 1, K6: 2}

// drained returns every message the subscription delivers until it ends
// (after Cancel or Close).
func drained(sub *multicast.Subscription) []multicast.Message {
	var out []multicast.Message
	for {
		batch, ok := sub.NextBatch()
		out = append(out, batch...)
		if !ok {
			return out
		}
	}
}

// queued returns what q holds now, without waiting for more.
func queued(q *multicast.Queue) []multicast.Message {
	if q.Depth() == 0 {
		return nil
	}
	batch, _ := q.Next()
	return batch
}

// buildWorld creates a populated relation and a network.
func buildWorld(t *testing.T, channels int, nTuples int, seed int64) (*relation.Relation, *multicast.Network) {
	t.Helper()
	bounds := geom.R(0, 0, 1000, 1000)
	rel := relation.MustNew(bounds, 20, 20)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nTuples; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
	}
	net, err := multicast.NewNetwork(channels)
	if err != nil {
		t.Fatal(err)
	}
	return rel, net
}

// runCycle plans, wires clients to their channels, publishes, and waits
// for every client to drain.
func runCycle(t *testing.T, s *Server, clients map[int]*client.Client) *Cycle {
	t.Helper()
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var subs []*multicast.Subscription
	for id, c := range clients {
		ch, ok := cy.ClientChannel[id]
		if !ok {
			t.Fatalf("client %d missing from allocation", id)
		}
		sub, err := s.net.Subscribe(ch, 16)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func(c *client.Client, sub *multicast.Subscription) {
			defer wg.Done()
			c.Consume(sub)
		}(c, sub)
	}
	if _, err := s.Publish(cy); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		sub.Cancel()
	}
	wg.Wait()
	return cy
}

func TestNewValidation(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	if _, err := New(nil, net, Config{}); err == nil {
		t.Fatal("nil relation should be rejected")
	}
	if _, err := New(rel, nil, Config{}); err == nil {
		t.Fatal("nil network should be rejected")
	}
	if _, err := New(rel, net, Config{}); err != nil {
		t.Fatalf("valid server rejected: %v", err)
	}
}

func TestSubscribeDuplicateRejected(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	s, _ := New(rel, net, Config{})
	q := query.Range(1, geom.R(0, 0, 10, 10))
	if err := s.Subscribe(1, q); err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe(1, q); err == nil {
		t.Fatal("duplicate subscription should be rejected")
	}
}

func TestPlanWithoutSubscriptions(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	s, _ := New(rel, net, Config{})
	if _, err := s.Plan(); err == nil {
		t.Fatal("planning with no subscriptions should fail")
	}
}

// TestEndToEndAnswerEquality is the central integration property of the
// whole system (§3.1 completeness + extractor correctness): for every
// merge procedure, every client's extracted answer equals the answer of
// running its query directly against the database.
func TestEndToEndAnswerEquality(t *testing.T) {
	for _, proc := range query.Procedures() {
		proc := proc
		t.Run(proc.Name(), func(t *testing.T) {
			rel, net := buildWorld(t, 1, 2000, 42)
			defer net.Close()
			s, err := New(rel, net, Config{Model: testModel, Procedure: proc})
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.MustNewGenerator(workload.DefaultConfig())
			qs := gen.Queries(12)
			clients := map[int]*client.Client{}
			for i, q := range qs {
				id := i % 4 // 4 clients, 3 queries each
				if clients[id] == nil {
					clients[id] = client.New(id)
				}
				clients[id].AddQuery(q)
				if err := s.Subscribe(id, q); err != nil {
					t.Fatal(err)
				}
			}
			runCycle(t, s, clients)
			for id, c := range clients {
				for _, q := range c.Queries() {
					got := c.Answer(q.ID)
					want := q.Answer(rel)
					if len(got) != len(want) {
						t.Fatalf("client %d query %d: got %d tuples, want %d",
							id, q.ID, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID {
							t.Fatalf("client %d query %d: tuple mismatch at %d", id, q.ID, i)
						}
					}
				}
			}
		})
	}
}

func TestMultiChannelAllocationAndDelivery(t *testing.T) {
	rel, net := buildWorld(t, 3, 2000, 7)
	defer net.Close()
	s, err := New(rel, net, Config{Model: testModel, Strategy: chanalloc.BestOfBoth})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewGenerator(workload.DefaultConfig())
	qs := gen.Queries(12)
	clientQueries := gen.Clients(6, qs)
	clients := map[int]*client.Client{}
	for id, qidx := range clientQueries {
		clients[id] = client.New(id)
		for _, qi := range qidx {
			clients[id].AddQuery(qs[qi])
			if err := s.Subscribe(id, qs[qi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cy := runCycle(t, s, clients)

	// Every client is assigned to a valid channel.
	for id, ch := range cy.ClientChannel {
		if ch < 0 || ch >= net.Channels() {
			t.Fatalf("client %d on invalid channel %d", id, ch)
		}
	}
	// Answers are complete and exact despite the split across channels.
	for id, c := range clients {
		for _, q := range c.Queries() {
			got, want := c.Answer(q.ID), q.Answer(rel)
			if len(got) != len(want) {
				t.Fatalf("client %d query %d: got %d tuples, want %d", id, q.ID, len(got), len(want))
			}
		}
	}
	// Plan cost estimate should not exceed the no-merging baseline.
	if cy.EstimatedCost > cy.InitialCost+1e-6 {
		t.Fatalf("estimated cost %g exceeds initial %g", cy.EstimatedCost, cy.InitialCost)
	}
}

func TestUnsubscribeChangesNextCycle(t *testing.T) {
	rel, net := buildWorld(t, 1, 500, 9)
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	q1 := query.Range(1, geom.R(0, 0, 100, 100))
	q2 := query.Range(2, geom.R(200, 200, 300, 300))
	s.Subscribe(1, q1)
	s.Subscribe(2, q2)
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cy.Queries) != 2 {
		t.Fatalf("planned %d queries, want 2", len(cy.Queries))
	}
	if !s.Unsubscribe(2, 2) {
		t.Fatal("Unsubscribe should succeed")
	}
	if s.Unsubscribe(2, 2) {
		t.Fatal("second Unsubscribe should report false")
	}
	cy, err = s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cy.Queries) != 1 || cy.Queries[0].ID != 1 {
		t.Fatalf("after unsubscribe, plan has %v", cy.Queries)
	}
}

func TestPublishDeltaShipsOnlyNewTuples(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	q := query.Range(1, geom.R(0, 0, 1000, 1000))
	s.Subscribe(1, q)
	c := client.New(1, q)

	rel.Insert(geom.Pt(10, 10), []byte("a"))
	rel.Insert(geom.Pt(20, 20), []byte("b"))

	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := net.Subscribe(0, 16)
	done := make(chan struct{})
	go func() { c.Consume(sub); close(done) }()

	// First delta cycle ships everything.
	rep, err := s.PublishDelta(cy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 2 {
		t.Fatalf("first delta shipped %d tuples, want 2", rep.Tuples)
	}
	// Nothing new: second delta ships nothing.
	rep, err = s.PublishDelta(cy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 0 {
		t.Fatalf("idle delta shipped %d tuples, want 0", rep.Tuples)
	}
	// Insert one more; third delta ships exactly it.
	rel.Insert(geom.Pt(30, 30), []byte("c"))
	rep, err = s.PublishDelta(cy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 1 {
		t.Fatalf("delta shipped %d tuples, want 1", rep.Tuples)
	}
	sub.Cancel()
	<-done
	if got := len(c.Answer(1)); got != 3 {
		t.Fatalf("client accumulated %d tuples, want 3", got)
	}
}

func TestLossyNetworkDetectedByClients(t *testing.T) {
	rel := relation.MustNew(geom.R(0, 0, 100, 100), 4, 4)
	rel.Insert(geom.Pt(5, 5), nil)
	net, err := multicast.NewNetwork(1, multicast.WithLoss(0.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	q := query.Range(1, geom.R(0, 0, 100, 100))
	s.Subscribe(1, q)
	c := client.New(1, q)
	sub, _ := net.Subscribe(0, 64)
	done := make(chan struct{})
	go func() { c.Consume(sub); close(done) }()
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Publish(cy); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	<-done
	st := c.Stats()
	if st.MessagesSeen == 40 {
		t.Fatal("loss injection should have dropped some deliveries")
	}
	if st.GapsDetected == 0 {
		t.Fatal("client should detect sequence gaps under loss")
	}
}

func TestMergingReducesTrafficForOverlappingClients(t *testing.T) {
	// The headline system behaviour (§1): identical queries from n
	// clients are processed and transmitted once when merged, n times
	// unmerged.
	rel, _ := buildWorld(t, 1, 1000, 5)
	r := geom.R(100, 100, 400, 400)

	run := func(algo core.Algorithm) multicast.Stats {
		net, _ := multicast.NewNetwork(1)
		defer net.Close()
		s, _ := New(rel, net, Config{Model: testModel, Algorithm: algo})
		for id := 0; id < 5; id++ {
			if err := s.Subscribe(id, query.Range(query.ID(id+1), r)); err != nil {
				t.Fatal(err)
			}
		}
		cy, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(cy); err != nil {
			t.Fatal(err)
		}
		return net.Stats()
	}

	merged := run(core.PairMerge{})
	unmerged := run(noMerge{})
	if merged.PayloadBytesSent*4 > unmerged.PayloadBytesSent {
		t.Fatalf("merging identical queries should cut traffic ~5x: merged %d, unmerged %d",
			merged.PayloadBytesSent, unmerged.PayloadBytesSent)
	}
	if merged.MessagesPublished != 1 || unmerged.MessagesPublished != 5 {
		t.Fatalf("messages: merged %d (want 1), unmerged %d (want 5)",
			merged.MessagesPublished, unmerged.MessagesPublished)
	}
}

// noMerge is the strawman algorithm that never merges (the standard
// subscription service of §1).
type noMerge struct{}

func (noMerge) Name() string                        { return "no-merge" }
func (noMerge) Solve(inst *core.Instance) core.Plan { return core.Singletons(inst.N) }

// TestFilteredSubscriptionEndToEnd verifies that attribute predicates
// (§2's "more complicated queries") work through the full pipeline:
// merging and dissemination operate on regions, the filter is applied
// client-side in the extractor.
func TestFilteredSubscriptionEndToEnd(t *testing.T) {
	rel := relation.MustNew(geom.R(0, 0, 100, 100), 4, 4)
	rng := rand.New(rand.NewSource(77))
	kinds := []string{"tank", "truck", "infantry"}
	for i := 0; i < 500; i++ {
		rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100),
			[]byte(kinds[rng.Intn(len(kinds))]))
	}
	net, err := multicast.NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})

	tanksOnly := func(tu relation.Tuple) bool { return string(tu.Payload) == "tank" }
	q1 := query.Filtered(1, geom.R(0, 0, 60, 60), tanksOnly)
	q2 := query.Range(2, geom.R(30, 30, 90, 90)) // unfiltered, overlapping
	clients := map[int]*client.Client{
		0: client.New(0, q1),
		1: client.New(1, q2),
	}
	s.Subscribe(0, q1)
	s.Subscribe(1, q2)
	runCycle(t, s, clients)

	for id, c := range clients {
		for _, q := range c.Queries() {
			got, want := c.Answer(q.ID), q.Answer(rel)
			if len(got) != len(want) {
				t.Fatalf("client %d query %d: %d tuples, want %d", id, q.ID, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("client %d query %d: tuple mismatch", id, q.ID)
				}
			}
		}
	}
	// The filtered client must have seen only tanks.
	for _, tu := range clients[0].Answer(1) {
		if string(tu.Payload) != "tank" {
			t.Fatalf("filter leaked a %q tuple", tu.Payload)
		}
	}
}

// TestDeltaShipsRemovals: the §11 dynamic scenario with deletions —
// clients learn about removed objects via removal notices scoped to
// their merged regions, and their accumulated views track the database.
func TestDeltaShipsRemovals(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	q := query.Range(1, geom.R(0, 0, 500, 500))
	s.Subscribe(1, q)
	c := client.New(1, q)
	sub, _ := net.Subscribe(0, 64)
	done := make(chan struct{})
	go func() { c.Consume(sub); close(done) }()

	inRegion := rel.Insert(geom.Pt(100, 100), []byte("in"))
	outRegion := rel.Insert(geom.Pt(900, 900), []byte("out"))
	rel.Insert(geom.Pt(200, 200), []byte("stay"))

	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublishDelta(cy); err != nil {
		t.Fatal(err)
	}

	// Delete one tuple inside the subscription and one outside it.
	rel.Delete(inRegion)
	rel.Delete(outRegion)
	rep, err := s.PublishDelta(cy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 0 {
		t.Fatalf("removal-only delta shipped %d tuples", rep.Tuples)
	}
	sub.Cancel()
	<-done

	got := c.Answer(1)
	want := q.Answer(rel)
	if len(got) != len(want) || len(got) != 1 {
		t.Fatalf("client view has %d tuples, database has %d (want 1)", len(got), len(want))
	}
	if got[0].ID == inRegion {
		t.Fatal("deleted tuple still in the client view")
	}
}

// TestFullPublishAdvancesDeltaWatermark: a full Publish establishes the
// delta watermark, so the delta published after it carries exactly the
// period since — the inserts, and the removal notice of a tuple the full
// answers still held — instead of shipping full answers without any
// removals. With nothing published before, PublishDelta still behaves
// like Publish.
func TestFullPublishAdvancesDeltaWatermark(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	q := query.Range(1, geom.R(0, 0, 500, 500))
	s.Subscribe(1, q)
	c := client.New(1, q)
	sub, _ := net.Subscribe(0, 64)
	done := make(chan struct{})
	go func() { c.Consume(sub); close(done) }()

	doomed := rel.Insert(geom.Pt(100, 100), []byte("doomed"))
	rel.Insert(geom.Pt(200, 200), []byte("stay"))
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Publish(cy); err != nil || rep.Tuples != 2 {
		t.Fatalf("full publish shipped %d tuples (%v), want 2", rep.Tuples, err)
	}

	rel.Delete(doomed)
	rel.Insert(geom.Pt(300, 300), []byte("new"))
	rep, err := s.PublishDelta(cy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 1 {
		t.Fatalf("first delta after a full publish shipped %d tuples, want the 1 inserted since", rep.Tuples)
	}
	sub.Cancel()
	<-done
	got, want := c.Answer(1), q.Answer(rel)
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("client view has %d tuples, database has %d (want 2)", len(got), len(want))
	}
	for _, tu := range got {
		if tu.ID == doomed {
			t.Fatal("tuple deleted after the full publish is still in the client view")
		}
	}

	// Never published: the first delta ships the full answers.
	rel2, net2 := buildWorld(t, 1, 0, 1)
	defer net2.Close()
	s2, _ := New(rel2, net2, Config{Model: testModel})
	s2.Subscribe(1, q)
	rel2.Insert(geom.Pt(100, 100), []byte("a"))
	rel2.Insert(geom.Pt(200, 200), []byte("b"))
	cy2, err := s2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := s2.PublishDelta(cy2); err != nil || rep.Tuples != 2 {
		t.Fatalf("first delta of a fresh server shipped %d tuples (%v), want 2", rep.Tuples, err)
	}
}

// TestFullPublishBetweenDeltasShipsRemovals: delta → delete → full (the
// publish a client's Refresh forces in delta mode) → delta. The full
// publish moves the watermark past the delete, so it has to announce the
// removal itself: the client unions a full answer into its view, and the
// next delta no longer looks that far back.
func TestFullPublishBetweenDeltasShipsRemovals(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	q := query.Range(1, geom.R(0, 0, 500, 500))
	s.Subscribe(1, q)
	c := client.New(1, q)
	sub, _ := net.Subscribe(0, 64)
	done := make(chan struct{})
	go func() { c.Consume(sub); close(done) }()

	doomed := rel.Insert(geom.Pt(100, 100), []byte("doomed"))
	rel.Insert(geom.Pt(200, 200), []byte("stay"))
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublishDelta(cy); err != nil {
		t.Fatal(err)
	}
	rel.Delete(doomed)
	rel.Delete(rel.Insert(geom.Pt(150, 150), []byte("never seen")))
	rel.Insert(geom.Pt(300, 300), []byte("new"))
	if rep, err := s.Publish(cy); err != nil || rep.Tuples != 2 {
		t.Fatalf("full publish shipped %d tuples (%v), want 2", rep.Tuples, err)
	}
	if rep, err := s.PublishDelta(cy); err != nil || rep.Tuples != 0 {
		t.Fatalf("delta after the full publish shipped %d tuples (%v), want 0", rep.Tuples, err)
	}
	sub.Cancel()
	<-done
	got, want := c.Answer(1), q.Answer(rel)
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("client view has %d tuples, database has %d (want 2)", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("client view holds tuple %d, database %d", got[i].ID, want[i].ID)
		}
	}
}

// TestValidateCycleOnAllPlans runs the structural oracle on every plan
// shape — 1 and 3 channels, the unsharded and the sharded planner, a full
// Plan and a Replan after churn — and pins the partition of §4 on the
// publish schedule as well: each (owner, query id) appears in exactly one
// message header of the cycle, so its client extracts it from exactly one
// message.
func TestValidateCycleOnAllPlans(t *testing.T) {
	check := func(stage string, s *Server, cy *Cycle, channels int) {
		t.Helper()
		if err := ValidateCycle(cy, channels); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		headers := make(map[subKey]int)
		for _, mp := range cy.publishPlans(s.cfg.Procedure) {
			for _, e := range mp.header {
				for _, id := range e.QueryIDs {
					headers[subKey{e.ClientID, id}]++
				}
			}
		}
		for i, q := range cy.Queries {
			if n := headers[subKey{cy.Owners[i], q.ID}]; n != 1 {
				t.Fatalf("%s: client %d query %d is in %d message headers, want 1", stage, cy.Owners[i], q.ID, n)
			}
		}
		if len(headers) != len(cy.Queries) {
			t.Fatalf("%s: headers address %d subscriptions, the cycle has %d", stage, len(headers), len(cy.Queries))
		}
	}
	for _, channels := range []int{1, 3} {
		for name, sharding := range map[string]shard.Config{
			"unsharded": {},
			"sharded":   {Enabled: true, ShardBits: 2, Aggregate: true},
		} {
			stage := fmt.Sprintf("channels=%d %s", channels, name)
			rel, net := buildWorld(t, channels, 800, int64(channels))
			s, _ := New(rel, net, Config{Model: testModel, Sharding: sharding})
			qs := workload.MustNewGenerator(workload.DefaultConfig()).Queries(40)
			for i, q := range qs[:36] {
				if err := s.Subscribe(i%3, q); err != nil {
					t.Fatal(err)
				}
			}
			cy, err := s.Plan()
			if err != nil {
				t.Fatal(err)
			}
			check(stage+" plan", s, cy, channels)
			// Churn inside the quarter rule on a stable client set, so
			// every path repairs the previous cycle.
			s.Unsubscribe(0, qs[0].ID)
			s.Unsubscribe(1, qs[1].ID)
			for i, q := range qs[36:] {
				if err := s.Subscribe(i%3, q); err != nil {
					t.Fatal(err)
				}
			}
			next, err := s.Replan(cy)
			if err != nil {
				t.Fatal(err)
			}
			if next.Info.Mode != ModeIncremental {
				t.Fatalf("%s: replan reports %+v, want an incremental one", stage, next.Info)
			}
			check(stage+" replan", s, next, channels)
			net.Close()
		}
	}
	// Corrupt cycles are caught.
	if err := ValidateCycle(nil, 1); err == nil {
		t.Fatal("nil cycle should fail validation")
	}
	bad := &Cycle{
		Queries:       []query.Query{query.Range(1, geom.R(0, 0, 1, 1))},
		Owners:        []int{0},
		ClientChannel: map[int]int{0: 0},
		ChannelPlans:  []core.Plan{{{0}, {0}}},
	}
	if err := ValidateCycle(bad, 1); err == nil {
		t.Fatal("duplicate allocation should fail validation")
	}
}

// TestCostModelMatchesMeasuredBytes is the model↔system agreement check:
// with the exact estimator, the cost model's size(M) must equal the
// network's measured payload bytes, and U(Q,M) must equal the sum of the
// clients' measured irrelevant bytes (one query per client, so the
// per-query and per-client views coincide).
func TestCostModelMatchesMeasuredBytes(t *testing.T) {
	rel, net := buildWorld(t, 1, 3000, 31)
	defer net.Close()
	s, _ := New(rel, net, Config{Model: testModel})
	gen := workload.MustNewGenerator(workload.DefaultConfig())
	qs := gen.Queries(8)
	clients := map[int]*client.Client{}
	for i, q := range qs {
		clients[i] = client.New(i, q)
		if err := s.Subscribe(i, q); err != nil {
			t.Fatal(err)
		}
	}
	cy := runCycle(t, s, clients)

	// Rebuild the instance the plan was computed against.
	inst := core.NewGeomInstance(testModel, cy.Queries, query.BoundingRect{}, relation.Exact{Rel: rel})
	plan := cy.ChannelPlans[0]
	predictedSize := cost.TransmitSize(inst.Sizer, plan)
	predictedU := cost.Irrelevant(inst.Sizer, plan)

	st := net.Stats()
	if float64(st.PayloadBytesSent) != predictedSize {
		t.Fatalf("size(M): model predicts %g, network measured %d", predictedSize, st.PayloadBytesSent)
	}
	measuredU := 0
	for _, c := range clients {
		measuredU += c.Stats().IrrelevantBytes
	}
	if float64(measuredU) != predictedU {
		t.Fatalf("U(Q,M): model predicts %g, clients measured %d", predictedU, measuredU)
	}
}
