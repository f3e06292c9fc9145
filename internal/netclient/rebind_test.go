package netclient

import (
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/shard"
)

// TestReplansWithoutMovesLeaveNoGaps runs clients through a series of
// replans caused by someone else's subscription churn. None of them
// changes channel, so the daemon keeps each session's attachment: every
// client is told the new assignment each time, sees its channel's frames
// without a gap, and never asks for a refresh.
func TestReplansWithoutMovesLeaveNoGaps(t *testing.T) {
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 16, 16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
	}
	d, err := daemon.New(rel, 4, server.Config{
		Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 2},
		Sharding: shard.Config{Enabled: true, ShardBits: 4, Aggregate: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go d.Serve(ctx, ln)
	defer func() {
		cancel()
		d.Close()
		ln.Close()
	}()

	const n = 10
	clients := make([]*Client, n)
	assigns := make([]atomic.Int64, n)
	for i := range clients {
		x, y := float64(40+i*90), float64(40+(i*370)%900)
		var qs []query.Query
		for k := 0; k < 4; k++ {
			qs = append(qs, query.Range(query.ID(k+1), geom.RectWH(x+float64(k*12), y+float64(k*9), 50, 50)))
		}
		i := i
		clients[i], err = New(Config{
			Addr: ln.Addr().String(), ClientID: i + 1, Queries: qs, MaxAttempts: 1,
			OnEvent: func(ev daemon.Event) {
				if ev.Assigned != nil {
					assigns[i].Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go clients[i].Run(ctx)
	}
	// The churner owns the only subscription that changes.
	churner, err := daemon.Dial(ln.Addr().String(), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer churner.Close()
	go func() {
		for {
			if _, err := churner.Next(); err != nil {
				return
			}
		}
	}()
	if err := churner.Subscribe(query.Range(1, geom.RectWH(500, 500, 40, 40))); err != nil {
		t.Fatal(err)
	}
	waitForQueries(t, d, 4*n+1)

	const replans = 5 // 10 changes to 41 subscriptions: the fifth is still within the quarter
	for round := 1; round <= replans; round++ {
		if round > 1 {
			if err := churner.Unsubscribe(query.ID(round - 1)); err != nil {
				t.Fatal(err)
			}
			if err := churner.Subscribe(query.Range(query.ID(round), geom.RectWH(float64(100*round), 500, 40, 40))); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for planned := false; !planned; {
				cy, err := d.Server().Plan()
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range cy.Queries {
					planned = planned || cy.Owners[i] == 99 && q.ID == query.ID(round)
				}
				if planned = planned && len(cy.Queries) == 4*n+1; planned {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: the churner's swap never arrived", round)
				}
				time.Sleep(time.Millisecond)
			}
		}
		for k := 0; k < 50; k++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("new"))
		}
		if _, err := d.RunCycle(true); err != nil {
			t.Fatal(err)
		}
		recs := d.RecentCycles()
		rec := recs[len(recs)-1]
		if round == 1 && (rec.Mode != "full" || rec.SessionsMoved != n+1) {
			t.Fatalf("first cycle %+v, want a full plan binding %d sessions", rec, n+1)
		}
		if round > 1 && (rec.Mode != "incremental" || rec.SessionsMoved != 0) {
			t.Fatalf("round %d: cycle %+v, want an incremental replan moving no session", round, rec)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for i, c := range clients {
		for assigns[i].Load() < replans || c.Stats().LastSeq != d.Network().CurrentSeq(c.Stats().Channel) {
			if time.Now().After(deadline) {
				t.Fatalf("client %d: %d of %d assignments, seq %d of %d", i+1, assigns[i].Load(), replans,
					c.Stats().LastSeq, d.Network().CurrentSeq(c.Stats().Channel))
			}
			time.Sleep(time.Millisecond)
		}
		st := c.Stats()
		if st.GapRefreshes != 0 || st.ResumeRefreshes != 0 || st.Connects != 1 {
			t.Fatalf("client %d: %+v, want one connection and no refresh", i+1, st)
		}
		if gaps := c.Extractor().Stats().GapsDetected; gaps != 0 {
			t.Fatalf("client %d: extractor saw %d gaps", i+1, gaps)
		}
		if got := assigns[i].Load(); got != replans {
			t.Fatalf("client %d: %d Assigned frames for %d replans", i+1, got, replans)
		}
	}
}
