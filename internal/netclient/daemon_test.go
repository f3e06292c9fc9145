// Tests that run the client runtime against a live root daemon. They are
// an external test package because the daemon imports netclient.
package netclient_test

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
	"qsub/internal/netclient"
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
		Sharding: shard.Config{ShardBits: 4, Aggregate: true},
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
	clients := make([]*netclient.Client, n)
	assigns := make([]atomic.Int64, n)
	for i := range clients {
		x, y := float64(40+i*90), float64(40+(i*370)%900)
		var qs []query.Query
		for k := 0; k < 4; k++ {
			qs = append(qs, query.Range(query.ID(k+1), geom.RectWH(x+float64(k*12), y+float64(k*9), 50, 50)))
		}
		i := i
		clients[i], err = netclient.New(netclient.Config{
			Addr: ln.Addr().String(), ClientID: i + 1, Queries: qs, MaxAttempts: 1,
			OnEvent: func(ev netclient.Event) {
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
	churner, err := netclient.Dial(ln.Addr().String(), 99)
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

// startDaemonOn serves a fresh daemon on the given listener.
func startDaemonOn(t *testing.T, ln net.Listener) (*daemon.Daemon, context.CancelFunc) {
	t.Helper()
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
	}
	d, err := daemon.New(rel, 1, server.Config{Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go d.Serve(ctx, ln)
	return d, cancel
}

// waitForQueries polls until the daemon registry holds n queries.
func waitForQueries(t *testing.T, d *daemon.Daemon, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if cy, err := d.Server().Plan(); err == nil && len(cy.Queries) == n {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("daemon never reached %d queries", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestReconnectResubscribesAndRefreshes is the end-to-end resilience
// path: the daemon dies mid-run and is replaced on the same address; the
// client reconnects on its own, re-registers its query, requests a full
// refresh, and extracts the complete answer from the new daemon.
func TestReconnectResubscribesAndRefreshes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	d1, cancel1 := startDaemonOn(t, ln)

	q := query.Range(1, geom.R(0, 0, 1000, 1000))
	c, err := netclient.New(netclient.Config{
		Addr:       addr,
		ClientID:   2,
		Queries:    []query.Query{q},
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		JitterSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	waitForQueries(t, d1, 1)
	if _, err := d1.RunCycle(true); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for len(c.Extractor().Answer(1)) == 0 {
		select {
		case <-deadline:
			t.Fatal("client never extracted the first answer")
		case <-time.After(5 * time.Millisecond):
		}
	}
	firstAnswer := len(c.Extractor().Answer(1))

	// The daemon dies; a successor takes over the same address.
	cancel1()
	d1.Close()
	ln.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d2, cancel2 := startDaemonOn(t, ln2)
	defer func() {
		cancel2()
		d2.Close()
		ln2.Close()
	}()

	// The client must re-register with the successor by itself and ask
	// for a refresh, so the next delta cycle ships full answers.
	waitForQueries(t, d2, 1)
	if _, err := d2.RunCycle(true); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(5 * time.Second)
	for len(c.Extractor().Answer(1)) < firstAnswer {
		select {
		case <-deadline:
			t.Fatalf("client recovered only %d/%d tuples after reconnect",
				len(c.Extractor().Answer(1)), firstAnswer)
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := c.Stats()
	if st.Connects < 2 {
		t.Fatalf("Connects = %d, want >= 2", st.Connects)
	}
	if st.ResumeRefreshes < 1 {
		t.Fatalf("ResumeRefreshes = %d, want >= 1", st.ResumeRefreshes)
	}
}
