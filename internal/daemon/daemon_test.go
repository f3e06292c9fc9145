package daemon

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"qsub/internal/client"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/trace"
)

// startDaemon builds a daemon over a small populated relation and serves
// it on a loopback listener.
func startDaemon(t *testing.T, channels int) (*Daemon, string) {
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(context.Background(), ln)
	t.Cleanup(func() {
		d.Close()
		ln.Close()
	})
	return d, ln.Addr().String()
}

// drainUntil reads events until pred returns true or the deadline hits.
func drainUntil(t *testing.T, conn *Conn, deadline time.Duration, pred func(Event) bool) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for {
			ev, err := conn.Next()
			if err != nil {
				done <- err
				return
			}
			if pred(ev) {
				done <- nil
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(deadline):
		t.Fatal("timed out waiting for event")
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	d, addr := startDaemon(t, 1)

	q := query.Range(1, geom.R(100, 100, 400, 400))
	conn, err := Dial(addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(q); err != nil {
		t.Fatal(err)
	}
	if err := conn.Ready(); err != nil {
		t.Fatal(err)
	}

	// Give the daemon a moment to process the subscribe frame, then run
	// a cycle.
	waitForSubscriptions(t, d, 1)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}

	// The client must see an assignment and then its answer.
	c := client.New(7, q)
	var assigned bool
	drainUntil(t, conn, 5*time.Second, func(ev Event) bool {
		switch {
		case ev.Assigned != nil:
			assigned = true
			return false
		case ev.Answer != nil:
			c.Handle(*ev.Answer)
			return true
		case ev.Err != nil:
			t.Fatalf("server error: %s", ev.Err.Msg)
		}
		return false
	})
	if !assigned {
		t.Fatal("client never received a channel assignment")
	}
	want := q.Answer(d.Server().Relation())
	got := c.Answer(1)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("client extracted %d tuples, want %d (nonzero)", len(got), len(want))
	}
}

func TestDaemonMultipleClientsAcrossChannels(t *testing.T) {
	d, addr := startDaemon(t, 2)

	qs := []query.Query{
		query.Range(1, geom.R(0, 0, 300, 300)),
		query.Range(2, geom.R(50, 50, 350, 350)),
		query.Range(3, geom.R(600, 600, 900, 900)),
	}
	conns := make([]*Conn, len(qs))
	clients := make([]*client.Client, len(qs))
	for i, q := range qs {
		conn, err := Dial(addr, i)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Subscribe(q); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		clients[i] = client.New(i, q)
	}
	waitForSubscriptions(t, d, 3)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}

	for i, conn := range conns {
		i, conn := i, conn
		drainUntil(t, conn, 5*time.Second, func(ev Event) bool {
			if ev.Answer != nil {
				clients[i].Handle(*ev.Answer)
				// Done once the client's own query got data.
				return len(clients[i].Answer(qs[i].ID)) > 0
			}
			if ev.Err != nil {
				t.Fatalf("server error: %s", ev.Err.Msg)
			}
			return false
		})
	}
	for i, c := range clients {
		want := qs[i].Answer(d.Server().Relation())
		got := c.Answer(qs[i].ID)
		if len(got) != len(want) {
			t.Fatalf("client %d extracted %d tuples, want %d", i, len(got), len(want))
		}
	}
}

// TestDaemonDuplicateClientSupersedes: a reconnect with the same client
// id replaces the (possibly half-open) predecessor session — the old
// session's queries are released, the old connection is torn down, and
// the new session works normally.
func TestDaemonDuplicateClientSupersedes(t *testing.T) {
	d, addr := startDaemon(t, 1)
	a, err := Dial(addr, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Make sure a's Hello has been processed before the reconnect
	// arrives (frames are handled asynchronously).
	if err := a.Subscribe(query.Range(1, geom.R(0, 0, 10, 10))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)

	// The predecessor is left half-open: it never says Bye.
	b, err := Dial(addr, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Subscribe(query.Range(2, geom.R(20, 20, 40, 40))); err != nil {
		t.Fatal(err)
	}
	// The registry must converge to exactly b's query: a's was released
	// by the supersede, not merely shadowed.
	deadline := time.After(5 * time.Second)
	for {
		cy, err := d.Server().Plan()
		if err == nil && len(cy.Queries) == 1 && cy.Queries[0].ID == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("registry never converged to the successor's query (err=%v)", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := d.Metrics().SessionsSuperseded.Load(); got != 1 {
		t.Fatalf("SessionsSuperseded = %d, want 1", got)
	}
	// The predecessor's connection was closed by the daemon.
	if _, err := a.Next(); err == nil {
		t.Fatal("superseded session's connection should be closed")
	}
	// The successor still operates: it gets an assignment and answers.
	waitForSubscriptions(t, d, 1)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	drainUntil(t, b, 5*time.Second, func(ev Event) bool {
		return ev.Answer != nil
	})
}

func TestDaemonUnsubscribe(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q1 := query.Range(1, geom.R(0, 0, 100, 100))
	q2 := query.Range(2, geom.R(200, 200, 300, 300))
	if err := conn.Subscribe(q1); err != nil {
		t.Fatal(err)
	}
	if err := conn.Subscribe(q2); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 2)
	if err := conn.Unsubscribe(2); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	cy, err := d.Server().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cy.Queries) != 1 || cy.Queries[0].ID != 1 {
		t.Fatalf("after unsubscribe the plan has %v", cy.Queries)
	}
}

func TestDaemonDisconnectReleasesSubscriptions(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 100, 100))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	conn.Close()
	// After disconnect the daemon must forget the client's queries.
	deadline := time.After(5 * time.Second)
	for {
		if _, err := d.Server().Plan(); err != nil {
			return // no subscriptions left
		}
		select {
		case <-deadline:
			t.Fatal("daemon kept the disconnected client's subscriptions")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestDaemonDeltaCycles(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := query.Range(1, geom.R(0, 0, 1000, 1000))
	if err := conn.Subscribe(q); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)

	rep, err := d.RunCycle(true)
	if err != nil {
		t.Fatal(err)
	}
	firstTuples := rep.Tuples
	if firstTuples == 0 {
		t.Fatal("first delta cycle should ship the full answer")
	}
	rep, err = d.RunCycle(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 0 {
		t.Fatalf("idle delta cycle shipped %d tuples", rep.Tuples)
	}
	d.Server().Relation().Insert(geom.Pt(500, 500), []byte("new"))
	rep, err = d.RunCycle(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != 1 {
		t.Fatalf("delta cycle shipped %d tuples, want 1", rep.Tuples)
	}
}

// TestDaemonRefreshBetweenDeltasShipsRemovals: in delta mode a client's
// Refresh turns the next cycle into a full publish. A tuple deleted
// between the last delta and that full publish must still leave the
// client's view: the full publish moves the delta watermark past the
// delete, so the delta after it will not announce the removal.
func TestDaemonRefreshBetweenDeltasShipsRemovals(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := query.Range(1, geom.R(0, 0, 1000, 1000))
	if err := conn.Subscribe(q); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	rel := d.Server().Relation()

	if _, err := d.RunCycle(true); err != nil {
		t.Fatal(err)
	}
	doomed := q.Answer(rel)[0].ID
	rel.Delete(doomed)
	rel.Insert(geom.Pt(500, 500), []byte("new"))
	if err := conn.Refresh(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for forced := false; !forced; {
		d.planMu.Lock()
		forced = d.refreshForce
		d.planMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("daemon never saw the Refresh")
		}
		time.Sleep(time.Millisecond)
	}
	rep, err := d.RunCycle(true)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(q.Answer(rel)); rep.Tuples != want {
		t.Fatalf("refresh cycle shipped %d tuples, want the full answer of %d", rep.Tuples, want)
	}
	if _, err := d.RunCycle(true); err != nil {
		t.Fatal(err)
	}

	c := client.New(2, q)
	answers := 0
	drainUntil(t, conn, 5*time.Second, func(ev Event) bool {
		if ev.Answer != nil {
			c.Handle(*ev.Answer)
			answers++
		}
		return answers == 3
	})
	got, want := c.Answer(1), q.Answer(rel)
	if len(got) != len(want) {
		t.Fatalf("client view has %d tuples, database has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID == doomed || got[i].ID != want[i].ID {
			t.Fatalf("client view holds tuple %d, database %d (deleted: %d)", got[i].ID, want[i].ID, doomed)
		}
	}
}

// waitForSubscriptions polls until the server sees n subscribed queries.
func waitForSubscriptions(t *testing.T, d *Daemon, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		cy, err := d.Server().Plan()
		if err == nil && len(cy.Queries) == n {
			return
		}
		if n == 0 && err != nil {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("server never reached %d subscriptions", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestDaemonChurnUnderCycles stresses the daemon with clients joining,
// subscribing, unsubscribing and leaving while cycles run concurrently.
// The invariant under churn is absence of deadlock/race and that every
// completed cycle is internally consistent; answer completeness for
// stable clients is covered by the other tests.
func TestDaemonChurnUnderCycles(t *testing.T) {
	d, addr := startDaemon(t, 2)

	stop := make(chan struct{})
	var cycles sync.WaitGroup
	cycles.Add(1)
	go func() {
		defer cycles.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.RunCycle(false) // often errors transiently (no subs) — fine
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for round := 0; round < 8; round++ {
				conn, err := Dial(addr, id)
				if err != nil {
					t.Error(err)
					return
				}
				nq := 1 + rng.Intn(3)
				for i := 0; i < nq; i++ {
					x, y := rng.Float64()*900, rng.Float64()*900
					q := query.Range(query.ID(i+1), geom.RectWH(x, y, 50, 50))
					if err := conn.Subscribe(q); err != nil {
						t.Error(err)
						conn.Close()
						return
					}
				}
				// Drain whatever arrives briefly, then churn away.
				deadline := time.After(5 * time.Millisecond)
			drain:
				for {
					select {
					case <-deadline:
						break drain
					default:
						break drain
					}
				}
				if rng.Intn(2) == 0 {
					conn.Unsubscribe(1)
				}
				conn.Close()
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	cycles.Wait()
}

// TestDaemonCachesPlans: the daemon must not re-plan on every cycle —
// only when subscriptions change or drift fires.
func TestDaemonCachesPlans(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 200, 200))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)

	for i := 0; i < 5; i++ {
		if _, err := d.RunCycle(false); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Replans(); got != 1 {
		t.Fatalf("replanned %d times over 5 stable cycles, want 1", got)
	}
	// A new subscription dirties the plan.
	if err := conn.Subscribe(query.Range(2, geom.R(300, 300, 500, 500))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 2)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	if got := d.Replans(); got != 2 {
		t.Fatalf("replans = %d after subscription change, want 2", got)
	}
}

// TestDaemonReplansOnDrift: heavy churn inside the subscribed region
// diverges actual bytes from the cached estimate; the drift monitor must
// force a re-plan.
func TestDaemonReplansOnDrift(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 500, 500))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	// 10x the in-region data.
	rel := d.Server().Relation()
	for i := 0; i < 5000; i++ {
		rel.Insert(geom.Pt(100, 100), []byte("burst"))
	}
	for i := 0; i < 5 && d.Replans() < 2; i++ {
		if _, err := d.RunCycle(false); err != nil {
			t.Fatal(err)
		}
	}
	if d.Replans() < 2 {
		t.Fatalf("drift never triggered a re-plan (replans=%d)", d.Replans())
	}
	// Stale estimates are the one thing a replan may not inherit: the
	// drift replan is a full Plan, and says so.
	recs := d.RecentCycles()
	if rec := recs[len(recs)-1]; rec.Mode != "full" {
		t.Fatalf("drift replan recorded mode %q, want full", rec.Mode)
	}
}

// lockedBuffer is a trace sink the test can read while the daemon still
// writes: a cycle's write-stage event is recorded from a goroutine that
// outlives RunCycle.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// TestDaemonTracing verifies the control-plane trace: subscription,
// plan, publish and drift events land in order with plausible contents.
func TestDaemonTracing(t *testing.T) {
	d, addr := startDaemon(t, 1)
	var buf lockedBuffer
	d.Trace = trace.NewRecorder(&buf, func() int64 { return 42 })

	conn, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(query.Range(1, geom.R(0, 0, 200, 200))); err != nil {
		t.Fatal(err)
	}
	waitForSubscriptions(t, d, 1)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}

	events, err := trace.Read(bytes.NewReader(buf.snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	if sum[trace.KindSubscribe] != 1 {
		t.Fatalf("subscribe events = %d, want 1 (%v)", sum[trace.KindSubscribe], sum)
	}
	if sum[trace.KindPlan] != 1 {
		t.Fatalf("plan events = %d, want 1 — plan caching broken (%v)", sum[trace.KindPlan], sum)
	}
	if sum[trace.KindPublish] != 2 || sum[trace.KindDrift] != 2 {
		t.Fatalf("publish/drift events = %d/%d, want 2/2", sum[trace.KindPublish], sum[trace.KindDrift])
	}
	for _, ev := range events {
		if ev.Kind == trace.KindPlan && (ev.Queries != 1 || ev.MergedSets < 1) {
			t.Fatalf("plan event contents wrong: %+v", ev)
		}
	}
}

func TestSaveLoadSubscriptions(t *testing.T) {
	d, addr := startDaemon(t, 1)
	conn, err := Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Subscribe(query.Range(1, geom.R(0, 0, 100, 100)))
	conn.Subscribe(query.Range(2, geom.R(200, 200, 300, 300)))
	waitForSubscriptions(t, d, 2)

	var buf bytes.Buffer
	if err := d.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}

	d2, _ := startDaemon(t, 1)
	n, err := d2.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d subscriptions, want 2", n)
	}
	cy, err := d2.Server().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(cy.Queries) != 2 || cy.Owners[0] != 4 {
		t.Fatalf("restored plan wrong: %d queries, owner %d", len(cy.Queries), cy.Owners[0])
	}
	// Garbage input is rejected cleanly.
	if _, err := d2.LoadSubscriptions(bytes.NewReader([]byte("garbage-frame"))); err == nil {
		t.Fatal("garbage subscription file should be rejected")
	}
}
