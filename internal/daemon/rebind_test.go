package daemon

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/shard"
)

// rebindClient is one raw connection of the rebind tests, drained in the
// background: the Assigned frames it was sent and the sequence numbers of
// its answer frames, in arrival order.
type rebindClient struct {
	id   int
	conn *netclient.Conn

	mu       sync.Mutex
	assigned []int // channel of every Assigned received
	seqs     []struct {
		channel int
		seq     uint64
	}
}

func (c *rebindClient) drain() {
	for {
		ev, err := c.conn.Next()
		if err != nil {
			return
		}
		c.mu.Lock()
		switch {
		case ev.Assigned != nil:
			c.assigned = append(c.assigned, ev.Assigned.Channel)
		case ev.Answer != nil:
			c.seqs = append(c.seqs, struct {
				channel int
				seq     uint64
			}{ev.Answer.Channel, ev.Answer.Seq})
		}
		c.mu.Unlock()
	}
}

// bindings returns the channel every session's queue is attached to. (A
// session's queue and writer are its own for the connection's lifetime,
// so there is nothing else a rebind could replace; TestSessionMoves in
// internal/fanout pins that a move starts and joins no goroutine.)
func bindings(d *Daemon) map[int]int {
	out := make(map[int]int)
	for _, l := range d.hub.TopLaggards(0) {
		out[l.ClientID] = l.Channel
	}
	return out
}

// startRebindWorld serves a sharded 4-channel daemon to n clients of four
// queries each, spread over the database so several channels are used.
func startRebindWorld(t *testing.T, n int) (*Daemon, []*rebindClient) {
	t.Helper()
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 16, 16)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
	}
	d, err := New(rel, 4, server.Config{
		Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 2},
		Sharding: shard.Config{ShardBits: 4, Aggregate: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(context.Background(), ln)
	t.Cleanup(func() {
		d.Close()
		ln.Close()
	})
	clients := make([]*rebindClient, n)
	for i := range clients {
		conn, err := netclient.Dial(ln.Addr().String(), i+1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		// Client i's queries sit around its own spot on a diagonal band.
		x, y := float64(40+i*900/n), float64(40+(i*370)%900)
		for k := 0; k < 4; k++ {
			r := geom.RectWH(x+float64(k*12), y+float64(k*9), 50, 50)
			if err := conn.Subscribe(query.Range(query.ID(k+1), r)); err != nil {
				t.Fatal(err)
			}
		}
		clients[i] = &rebindClient{id: i + 1, conn: conn}
		go clients[i].drain()
	}
	waitForCount(t, d, 4*n)
	return d, clients
}

func waitForCount(t *testing.T, d *Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.Server().SubscriptionCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d subscriptions, want %d", d.Server().SubscriptionCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitDelivered waits until every client has been sent its replans'
// Assigned frames and every frame published on its channel.
func awaitDelivered(t *testing.T, d *Daemon, clients []*rebindClient, replans int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, c := range clients {
		for {
			c.mu.Lock()
			done := len(c.assigned) == replans
			if done && len(c.seqs) > 0 {
				last := c.seqs[len(c.seqs)-1]
				done = last.seq == d.net.CurrentSeq(last.channel) && last.channel == c.assigned[replans-1]
			}
			c.mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("client %d: %d of %d Assigned frames, or frames still owed", c.id, len(c.assigned), replans)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func lastRecord(d *Daemon) CycleRecord {
	recs := d.RecentCycles()
	return recs[len(recs)-1]
}

// TestReplanLeavesUnmovedSessionsBound pins stable binding: the first
// plan binds every session once; an incremental replan that moves no
// client performs no bind at all, yet every session is sent the new
// Assigned, and the frames each client sees on its channel stay
// consecutive across the replans.
func TestReplanLeavesUnmovedSessionsBound(t *testing.T) {
	const n = 12
	d, clients := startRebindWorld(t, n)
	if _, err := d.RunCycle(true); err != nil {
		t.Fatal(err)
	}
	if rec := lastRecord(d); rec.Mode != "full" || rec.SessionsMoved != n || rec.ShardsSolved == 0 || rec.ShardsReused != 0 {
		t.Fatalf("first cycle %+v, want a full plan binding all %d sessions", rec, n)
	}
	bound := bindings(d)

	for round := 1; round <= 3; round++ {
		// One client swaps one subscription for a shifted copy.
		c := clients[round]
		if err := c.conn.Unsubscribe(1); err != nil {
			t.Fatal(err)
		}
		waitForCount(t, d, 4*n-1)
		x, y := float64(40+round*900/n), float64(40+(round*370)%900)
		if err := c.conn.Subscribe(query.Range(1, geom.RectWH(x+3, y+2, 50, 50))); err != nil {
			t.Fatal(err)
		}
		waitForCount(t, d, 4*n)
		d.Server().Relation().Insert(geom.Pt(x+20, y+20), []byte("new"))

		if _, err := d.RunCycle(true); err != nil {
			t.Fatal(err)
		}
		rec := lastRecord(d)
		if rec.Mode != "incremental" || rec.SessionsMoved != 0 {
			t.Fatalf("round %d: cycle %+v, want an incremental replan moving no session", round, rec)
		}
		if rec.ShardsReused == 0 || rec.ShardsSolved > rec.ShardsReused {
			t.Fatalf("round %d: %d tasks solved, %d reused", round, rec.ShardsSolved, rec.ShardsReused)
		}
		if now := bindings(d); len(now) != n {
			t.Fatalf("round %d: %d sessions", round, len(now))
		} else {
			for id, ch := range now {
				if ch != bound[id] {
					t.Fatalf("round %d: session %d was rebound though it did not move", round, id)
				}
			}
		}
	}
	if got := d.metrics.SessionsMoved.Load(); got != n {
		t.Fatalf("qsub_sessions_moved_total = %d, want the %d first binds only", got, n)
	}

	awaitDelivered(t, d, clients, 4)
	for _, c := range clients {
		c.mu.Lock()
		for i, s := range c.seqs {
			if s.channel != c.assigned[0] || s.seq != uint64(i+1) {
				t.Fatalf("client %d: frame %d is channel %d seq %d, want channel %d seq %d",
					c.id, i, s.channel, s.seq, c.assigned[0], i+1)
			}
		}
		c.mu.Unlock()
	}
}

// TestReplanRebindsMovedSessionOnce forces a full plan that changes the
// allocation: the sessions whose channel changed — and only those — are
// re-attached, once each, to the assigned channel.
func TestReplanRebindsMovedSessionOnce(t *testing.T) {
	const n = 12
	d, clients := startRebindWorld(t, n)
	if _, err := d.RunCycle(true); err != nil {
		t.Fatal(err)
	}
	d.planMu.Lock()
	before := d.cycle.ClientChannel
	d.planMu.Unlock()

	// More than a quarter of the subscriptions change, so the replan is a
	// full one: four clients pile all their queries onto one spot.
	for _, c := range clients[:4] {
		for k := 1; k <= 4; k++ {
			if err := c.conn.Unsubscribe(query.ID(k)); err != nil {
				t.Fatal(err)
			}
			if err := c.conn.Subscribe(query.Range(query.ID(10+k), geom.RectWH(700+float64(k*10), 100+float64(c.id*8), 200, 200))); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cy, err := d.Server().Plan()
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, q := range cy.Queries {
			if q.ID > 10 {
				moved++
			}
		}
		if moved == 16 && len(cy.Queries) == 4*n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription changes never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.RunCycle(true); err != nil {
		t.Fatal(err)
	}
	rec := lastRecord(d)
	if rec.Mode != "full" {
		t.Fatalf("cycle %+v, want a full plan after 32 changes to 48 subscriptions", rec)
	}
	d.planMu.Lock()
	after := d.cycle.ClientChannel
	d.planMu.Unlock()
	now := bindings(d)
	moved := 0
	for id, ch := range after {
		if ch != before[id] {
			moved++
		}
		if now[id] != ch {
			t.Fatalf("session %d (channel %d before) is assigned channel %d but attached to %d", id, before[id], ch, now[id])
		}
	}
	if moved == 0 {
		t.Fatal("the full plan moved no session; the test needs a population it does move")
	}
	if rec.SessionsMoved != moved {
		t.Fatalf("cycle record counts %d moved sessions, %d changed channel", rec.SessionsMoved, moved)
	}
	if got := d.metrics.SessionsMoved.Load(); got != uint64(n+moved) {
		t.Fatalf("qsub_sessions_moved_total = %d, want %d first binds + %d moves", got, n, moved)
	}
	awaitDelivered(t, d, clients, 2)
}
