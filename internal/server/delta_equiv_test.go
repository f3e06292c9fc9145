package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/client"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// buildDeltaWorld creates one relation+network+server, populates it with
// a deterministic tuple set, and registers deterministic subscriptions.
// Two calls with the same channel count produce twin worlds whose plans
// are identical.
func buildDeltaWorld(t *testing.T, channels int) (*Server, *relation.Relation, *multicast.Network) {
	t.Helper()
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 16, 16)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
	}
	net, err := multicast.NewNetwork(channels)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rel, net, Config{
		Model:    testModel,
		Seed:     42,
		Strategy: chanalloc.BestOfBoth,
	})
	if err != nil {
		t.Fatal(err)
	}
	qid := query.ID(1)
	for c := 0; c < 8; c++ {
		for q := 0; q < 3; q++ {
			x, y := rng.Float64()*800, rng.Float64()*800
			w := 50 + rng.Float64()*150
			if err := s.Subscribe(c, query.Range(qid, geom.R(x, y, x+w, y+w))); err != nil {
				t.Fatal(err)
			}
			qid++
		}
	}
	return s, rel, net
}

// normalizeMsg strips the pieces a comparison should ignore: nothing —
// the pin is bit-identical messages (modulo payload slice identity).
type capturedMsg struct {
	Channel int
	Seq     uint64
	Tuples  []relation.Tuple
	Header  []multicast.HeaderEntry
	Delta   bool
	Removed []uint64
}

func capture(msg multicast.Message) capturedMsg {
	return capturedMsg{
		Channel: msg.Channel,
		Seq:     msg.Seq,
		Tuples:  append([]relation.Tuple(nil), msg.Tuples...),
		Header:  msg.Header,
		Delta:   msg.Delta,
		Removed: append([]uint64(nil), msg.Removed...),
	}
}

// asDelta is the oracle for one message of the indexed delta path: a full
// answer of the twin world cut to the tuples past the watermark and
// flagged as a delta. A full publish already carries the removal notices
// of the period it closes, so those stay as they are.
func asDelta(msg multicast.Message, since uint64) multicast.Message {
	var kept []relation.Tuple
	for _, t := range msg.Tuples {
		if t.ID > since {
			kept = append(kept, t)
		}
	}
	msg.Tuples, msg.Delta = kept, true
	return msg
}

// TestDeltaPublishEquivalence pins the delta-indexed publish path
// bit-identical to a full search filtered by the watermark: a twin world
// publishes full answers, the test cuts them down with asDelta, and the
// Reports, per-channel message streams (tuples, headers, removal notices)
// and client answers/stats must match, single and multi channel.
func TestDeltaPublishEquivalence(t *testing.T) {
	for _, channels := range []int{1, 3} {
		t.Run(fmt.Sprintf("channels=%d", channels), func(t *testing.T) {
			type world struct {
				s       *Server
				rel     *relation.Relation
				net     *multicast.Network
				cy      *Cycle
				queues  []*multicast.Queue
				msgs    [][]capturedMsg
				clients map[int]*client.Client
			}
			mkWorld := func() *world {
				w := &world{clients: map[int]*client.Client{}}
				w.s, w.rel, w.net = buildDeltaWorld(t, channels)
				cy, err := w.s.Plan()
				if err != nil {
					t.Fatal(err)
				}
				if err := ValidateCycle(cy, channels); err != nil {
					t.Fatal(err)
				}
				w.cy = cy
				w.msgs = make([][]capturedMsg, channels)
				for ch := 0; ch < channels; ch++ {
					q := multicast.NewQueue(4096, multicast.Block)
					if err := w.net.Attach(q, ch); err != nil {
						t.Fatal(err)
					}
					w.queues = append(w.queues, q)
				}
				for i, owner := range cy.Owners {
					c := w.clients[owner]
					if c == nil {
						c = client.New(owner)
						w.clients[owner] = c
					}
					c.AddQuery(cy.Queries[i])
				}
				return w
			}
			a, b := mkWorld(), mkWorld()
			defer a.net.Close()
			defer b.net.Close()

			// Same churn in both worlds (ids are assigned identically).
			churn := func(w *world, seed int64) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 150; i++ {
					w.rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
				}
				all := w.rel.All()
				for i := 0; i < 30; i++ {
					w.rel.Delete(all[rng.Intn(len(all))].ID)
				}
			}
			// drain hands every queued message, passed through cut, to
			// the world's capture and clients, and returns the Report a
			// publish of exactly those messages makes.
			drain := func(w *world, cut func(multicast.Message) multicast.Message) Report {
				var rep Report
				for ch, q := range w.queues {
					for _, msg := range queued(q) {
						msg = cut(msg)
						rep.Messages++
						rep.Tuples += len(msg.Tuples)
						rep.PayloadBytes += msg.PayloadBytes()
						w.msgs[ch] = append(w.msgs[ch], capture(msg))
						for _, c := range w.clients {
							c.Handle(msg)
						}
					}
				}
				return rep
			}
			same := func(msg multicast.Message) multicast.Message { return msg }
			publishBoth := func(delta bool, tag string) {
				var ra, rb Report
				var err error
				cut := same
				if delta {
					if ra, err = a.s.PublishDelta(a.cy); err != nil {
						t.Fatal(err)
					}
					since := b.s.delivered
					cut = func(msg multicast.Message) multicast.Message { return asDelta(msg, since) }
				} else if ra, err = a.s.Publish(a.cy); err != nil {
					t.Fatal(err)
				}
				if _, err = b.s.Publish(b.cy); err != nil {
					t.Fatal(err)
				}
				if got := drain(a, same); got != ra {
					t.Fatalf("%s: indexed report %+v, its messages add up to %+v", tag, ra, got)
				}
				if rb = drain(b, cut); ra != rb {
					t.Fatalf("%s: reports differ: indexed %+v, filtered full %+v", tag, ra, rb)
				}
			}

			publishBoth(true, "first delta (full bootstrap)")
			for cycle := 0; cycle < 4; cycle++ {
				churn(a, int64(100+cycle))
				churn(b, int64(100+cycle))
				publishBoth(true, fmt.Sprintf("delta cycle %d", cycle))
			}
			publishBoth(false, "final full publish")

			for ch := range a.msgs {
				if len(a.msgs[ch]) != len(b.msgs[ch]) {
					t.Fatalf("channel %d: %d messages vs %d", ch, len(a.msgs[ch]), len(b.msgs[ch]))
				}
				for i := range a.msgs[ch] {
					if !reflect.DeepEqual(a.msgs[ch][i], b.msgs[ch][i]) {
						t.Fatalf("channel %d message %d differs:\nindexed:  %+v\nfiltered: %+v",
							ch, i, a.msgs[ch][i], b.msgs[ch][i])
					}
				}
			}
			for owner, ca := range a.clients {
				cb := b.clients[owner]
				if ca.Stats() != cb.Stats() {
					t.Fatalf("client %d stats differ: %+v vs %+v", owner, ca.Stats(), cb.Stats())
				}
				for _, q := range ca.Queries() {
					if !reflect.DeepEqual(ca.Answer(q.ID), cb.Answer(q.ID)) {
						t.Fatalf("client %d query %d answers differ", owner, q.ID)
					}
					if ca.QueryStatsFor(q.ID) != cb.QueryStatsFor(q.ID) {
						t.Fatalf("client %d query %d stats differ", owner, q.ID)
					}
				}
			}
		})
	}
}

// TestDeltaPublishMatchesDatabase is the end-to-end delta property: after
// churn and delta cycles, every client's accumulated view equals the
// database answer exactly (delta messages carry removal notices).
func TestDeltaPublishMatchesDatabase(t *testing.T) {
	s, rel, net := buildDeltaWorld(t, 1)
	defer net.Close()
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := net.Subscribe(0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	clients := map[int]*client.Client{}
	for i, owner := range cy.Owners {
		if clients[owner] == nil {
			clients[owner] = client.New(owner)
		}
		clients[owner].AddQuery(cy.Queries[i])
	}
	rng := rand.New(rand.NewSource(9))
	var live []uint64
	for _, tu := range rel.All() {
		live = append(live, tu.ID)
	}
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 80; i++ {
			live = append(live, rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload")))
		}
		for i := 0; i < 25 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			rel.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if _, err := s.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	for _, msg := range drained(sub) {
		for _, c := range clients {
			c.Handle(msg)
		}
	}
	for owner, c := range clients {
		for _, q := range c.Queries() {
			got := c.Answer(q.ID)
			want := q.Answer(rel)
			if len(got) != len(want) {
				t.Fatalf("client %d query %d: view %d tuples, database %d", owner, q.ID, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("client %d query %d: tuple %d is %d, want %d", owner, q.ID, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// TestConcurrentSubscribePublishDelta exercises the delta path under
// -race: subscriptions churn concurrently with continuous delta publishes
// against a fixed planned cycle.
func TestConcurrentSubscribePublishDelta(t *testing.T) {
	s, rel, net := buildDeltaWorld(t, 2)
	defer net.Close()
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := net.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // drainer
		defer wg.Done()
		drained(sub)
	}()
	wg.Add(1)
	go func() { // subscription churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := query.ID(10000 + i)
			if err := s.Subscribe(900, query.Range(id, geom.R(0, 0, 50, 50))); err != nil {
				t.Error(err)
				return
			}
			s.Unsubscribe(900, id)
		}
	}()
	wg.Add(1)
	go func() { // relation churn
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("x"))
			if i%3 == 0 {
				rel.Delete(id)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := s.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	sub.Cancel()
	wg.Wait()
}
