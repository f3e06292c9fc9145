package server

import (
	"math/rand"
	"testing"

	"qsub/internal/client"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// TestSoakDynamicSystem drives the whole system through many periods of
// realistic churn — inserts, deletes, subscribes, unsubscribes, re-plans
// — and verifies at every checkpoint that every client's accumulated view
// equals the database truth for its current queries. This is the
// "dynamic scenario" of §11 run end to end.
func TestSoakDynamicSystem(t *testing.T) {
	const (
		periods     = 40
		nClients    = 5
		spaceSize   = 1000.0
		checkpoints = 4
	)
	rng := rand.New(rand.NewSource(99))
	rel := relation.MustNew(geom.R(0, 0, spaceSize, spaceSize), 10, 10)
	net, err := multicast.NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	s, err := New(rel, net, Config{Model: cost.Model{KM: 3000, KT: 1, KU: 0.5, K6: 100}})
	if err != nil {
		t.Fatal(err)
	}

	// Live tuple ids for random deletion.
	var liveIDs []uint64
	insert := func() {
		id := rel.Insert(geom.Pt(rng.Float64()*spaceSize, rng.Float64()*spaceSize), []byte("obj"))
		liveIDs = append(liveIDs, id)
	}
	remove := func() {
		if len(liveIDs) == 0 {
			return
		}
		i := rng.Intn(len(liveIDs))
		if !rel.Delete(liveIDs[i]) {
			t.Fatalf("delete of live id %d failed", liveIDs[i])
		}
		liveIDs[i] = liveIDs[len(liveIDs)-1]
		liveIDs = liveIDs[:len(liveIDs)-1]
	}
	for i := 0; i < 2000; i++ {
		insert()
	}

	clients := make([]*client.Client, nClients)
	nextQID := query.ID(0)
	newQuery := func() query.Query {
		nextQID++
		x, y := rng.Float64()*800, rng.Float64()*800
		return query.Range(nextQID, geom.RectWH(x, y, rng.Float64()*150+20, rng.Float64()*150+20))
	}
	for id := range clients {
		clients[id] = client.New(id)
		q := newQuery()
		clients[id].AddQuery(q)
		if err := s.Subscribe(id, q); err != nil {
			t.Fatal(err)
		}
	}

	// Each period re-plans, publishes, and drains synchronously so the
	// soak stays deterministic; verification happens at checkpoints.
	for period := 1; period <= periods; period++ {
		// Churn the database.
		for i := 0; i < 30; i++ {
			insert()
		}
		for i := 0; i < 10; i++ {
			remove()
		}
		// Occasionally churn subscriptions.
		if period%7 == 0 {
			id := rng.Intn(nClients)
			old := clients[id].Queries()
			if len(old) > 1 && rng.Intn(2) == 0 {
				drop := old[rng.Intn(len(old))]
				clients[id].RemoveQuery(drop.ID)
				s.Unsubscribe(id, drop.ID)
			} else {
				q := newQuery()
				clients[id].AddQuery(q)
				if err := s.Subscribe(id, q); err != nil {
					t.Fatal(err)
				}
			}
		}

		cy, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		// Attach fresh subscriptions for this cycle, publish, then
		// drain synchronously.
		var attached []*multicast.Subscription
		for id := range clients {
			sub, err := net.Subscribe(cy.ClientChannel[id], 4096)
			if err != nil {
				t.Fatal(err)
			}
			attached = append(attached, sub)
		}
		if _, err := s.Publish(cy); err != nil {
			t.Fatal(err)
		}
		for i, sub := range attached {
			sub.Cancel()
			for _, msg := range drained(sub) {
				clients[i].Handle(msg)
			}
		}

		if period%(periods/checkpoints) == 0 {
			for id, c := range clients {
				for _, q := range c.Queries() {
					got := c.Answer(q.ID)
					want := q.Answer(rel)
					// Full publishes bring the view up to date for
					// current tuples; deleted tuples may linger in
					// the view since full publishes carry no removal
					// notices. Compare against want ∪ lingering: the
					// strict check is that every database tuple is
					// present.
					gotIDs := map[uint64]bool{}
					for _, tu := range got {
						gotIDs[tu.ID] = true
					}
					for _, tu := range want {
						if !gotIDs[tu.ID] {
							t.Fatalf("period %d: client %d query %d missing tuple %d",
								period, id, q.ID, tu.ID)
						}
					}
				}
			}
		}
	}
}

// TestSoakDeltaWithRemovals drives the delta pipeline with deletions and
// verifies exact view equality (deltas do carry removal notices, so the
// client view must match the database exactly).
func TestSoakDeltaWithRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	rel := relation.MustNew(geom.R(0, 0, 500, 500), 8, 8)
	net, err := multicast.NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	s, _ := New(rel, net, Config{Model: cost.Model{KM: 1000, KT: 1, KU: 1}})

	q1 := query.Range(1, geom.R(0, 0, 300, 300))
	q2 := query.Range(2, geom.R(150, 150, 450, 450))
	c1 := client.New(1, q1)
	c2 := client.New(2, q2)
	s.Subscribe(1, q1)
	s.Subscribe(2, q2)

	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := net.Subscribe(0, 8192)

	var liveIDs []uint64
	for period := 0; period < 30; period++ {
		for i := 0; i < 25; i++ {
			liveIDs = append(liveIDs,
				rel.Insert(geom.Pt(rng.Float64()*500, rng.Float64()*500), []byte("x")))
		}
		for i := 0; i < 8 && len(liveIDs) > 0; i++ {
			j := rng.Intn(len(liveIDs))
			rel.Delete(liveIDs[j])
			liveIDs[j] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
		if _, err := s.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	for _, msg := range drained(sub) {
		c1.Handle(msg)
		c2.Handle(msg)
	}

	for _, tc := range []struct {
		c *client.Client
		q query.Query
	}{{c1, q1}, {c2, q2}} {
		got := tc.c.Answer(tc.q.ID)
		want := tc.q.Answer(rel)
		if len(got) != len(want) {
			t.Fatalf("client %d: view has %d tuples, database has %d",
				tc.c.ID(), len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("client %d: view diverged at position %d", tc.c.ID(), i)
			}
		}
	}
}
