package daemon

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/netclient"
	"qsub/internal/netfault"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
)

// startDaemonCtx is startDaemon with a caller-controlled context and a
// hook to tune the hardening knobs before Serve starts.
func startDaemonCtx(t *testing.T, channels int, tune func(*Daemon)) (*Daemon, string, context.CancelFunc, chan error) {
	t.Helper()
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
	}
	d, err := New(rel, channels, server.Config{Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(d)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- d.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		d.Close()
		ln.Close()
	})
	return d, ln.Addr().String(), cancel, served
}

// dialFaulty connects to the daemon through a fault-injection wrapper.
func dialFaulty(t *testing.T, addr string, clientID int) (*netclient.Conn, *netfault.Conn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := netfault.Wrap(raw)
	conn, err := netclient.NewConn(fc, clientID)
	if err != nil {
		t.Fatal(err)
	}
	return conn, fc
}

// TestDaemonReadIdleExpiry: a session that goes silent past the idle
// timeout is dropped, its queries released and the expiry counted.
func TestDaemonReadIdleExpiry(t *testing.T) {
	d, addr, _, _ := startDaemonCtx(t, 1, func(d *Daemon) {
		d.ReadIdleTimeout = 100 * time.Millisecond
	})
	conn, err := netclient.Dial(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 100, 100))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	// Now say nothing. The daemon must reap the session on its own.
	deadline := time.After(5 * time.Second)
	for {
		if _, err := d.Server().Plan(); err != nil {
			break // registry empty again
		}
		select {
		case <-deadline:
			t.Fatal("idle session was never reaped")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := d.Metrics().SessionsExpiredIdle.Load(); got == 0 {
		t.Fatal("SessionsExpiredIdle not counted")
	}
}

// TestDaemonSlowConsumerEvicted: a subscriber that stops reading cannot
// stall the publish cycle. Its delivery queue fills, the publish evicts
// it, the cycle completes, and the eviction reaches Stats and metrics.
func TestDaemonSlowConsumerEvicted(t *testing.T) {
	d, addr, _, _ := startDaemonCtx(t, 1, func(d *Daemon) {
		d.SubscriberBuffer = 1
		// Long enough that the queue fills (and evicts) before the
		// stalled write expires, short enough to keep the test quick.
		d.WriteTimeout = 2 * time.Second
	})
	conn, fc := dialFaulty(t, addr, 8)
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 1000, 1000))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	fc.StallReads() // the consumer goes comatose without closing

	// Publish until the stalled consumer's socket and 1-slot queue are
	// both full; the cycle that finds the queue full must return within
	// its deadline with the subscriber evicted, never block.
	evicted := false
	for i := 0; i < 200 && !evicted; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := d.RunCycle(false)
			done <- err
		}()
		select {
		case err := <-done:
			// A cycle may error once the session (and its queries) are
			// torn down; that only happens after the eviction we want.
			if err != nil && d.Network().Stats().SlowEvictions == 0 {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("publish cycle blocked on a stalled consumer")
		}
		evicted = d.Network().Stats().SlowEvictions > 0
	}
	if !evicted {
		t.Fatal("stalled consumer was never evicted")
	}
	// The forwarder notices the canceled subscription (bounded by the
	// write deadline) and the session is torn down and counted.
	deadline := time.After(5 * time.Second)
	for d.Metrics().SessionsEvicted.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("SessionsEvicted not counted")
		case <-time.After(10 * time.Millisecond):
		}
	}
	for {
		if _, err := d.Server().Plan(); err != nil {
			break // queries released
		}
		select {
		case <-deadline:
			t.Fatal("evicted session's queries were never released")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDaemonMidFrameCut: a connection severed in the middle of a frame
// must tear the session down cleanly and release its queries.
func TestDaemonMidFrameCut(t *testing.T) {
	d, addr, _, _ := startDaemonCtx(t, 1, nil)
	conn, fc := dialFaulty(t, addr, 4)
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 100, 100))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	// The next frame dies 3 bytes in — mid-header.
	fc.CutAfter(3)
	conn.Subscribe(query.Range(2, geom.R(200, 200, 300, 300))) // truncated on the wire
	deadline := time.After(5 * time.Second)
	for {
		if _, err := d.Server().Plan(); err != nil {
			return // all queries released
		}
		select {
		case <-deadline:
			t.Fatal("daemon kept the cut session's subscriptions")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDaemonGracefulShutdown: canceling Serve's context while publishes
// are in flight drains sessions — the client still receives queued
// answers, then a Bye — and Serve returns nil.
func TestDaemonGracefulShutdown(t *testing.T) {
	d, addr, cancel, served := startDaemonCtx(t, 1, nil)
	conn, err := netclient.Dial(addr, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 1000, 1000))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	cancel() // shut down while the published answers may still be queued

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful Serve returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}

	// The client can drain everything the daemon queued before the
	// farewell; the stream ends with Bye (surfaced as an error by Next).
	sawAnswer := false
	for {
		ev, err := conn.Next()
		if err != nil {
			break
		}
		if ev.Answer != nil {
			sawAnswer = true
		}
	}
	if !sawAnswer {
		t.Fatal("client lost the in-flight publish during graceful shutdown")
	}
}
