package daemon_test

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qsub/internal/chanalloc"
	"qsub/internal/client"
	"qsub/internal/cost"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/relay"
	"qsub/internal/server"
	"qsub/internal/shard"
)

// movedElsewhere lists the instruments a healthy daemon's cycles do not
// move, each with the test that does: faults and backlogs, and solver
// work only the experiment drivers run.
var movedElsewhere = map[string]string{
	"qsub_fanout_dropped_total":         "multicast:TestLossInjectionDropsAndCounts",
	"qsub_fanout_evictions_total":       "fanout:TestControlFramesFollowPolicy",
	"qsub_sessions_evicted_total":       "daemon:TestDaemonSlowConsumerEvicted",
	"qsub_sessions_expired_idle_total":  "daemon:TestDaemonReadIdleExpiry",
	"qsub_sessions_expired_write_total": "fanout:TestWriteTimeoutClosesSession",
	"qsub_relay_reconnects_total":       "relay:TestRelayUpstreamReconnectRecovery",
	"qsub_session_max_seq_lag":          "relay:TestRelayAdminSurface",
	"qsub_session_max_queue_depth":      "relay:TestRelayAdminSurface",
	"qsub_solver_restarts_total":        "experiment:TestMetricsHookCountsSolverWork",
	"qsub_solver_components_total":      "experiment:TestMetricsHookCountsSolverWork",
	"qsub_solver_convergence_cost":      "experiment:TestMetricsHookCountsSolverWork",
	// Only MultiStart counts restarts, and no binary allocates with it.
	"qsub_alloc_restarts_total": "chanalloc:TestMultiStartParallelismInvariance",
}

// TestEveryInstrumentMoves is the catalog audit: every instrument the
// catalog registers is written by the code it describes. One direct
// session and one relayed session go through a plan, a churn replan, a
// delta publish with inserts and deletes, a Refresh and a redial that
// supersedes, once under each planner configuration qsubd runs (one shard
// on two channels, four shards on one); then every registered name must be non-zero
// on the root or the relay, except those movedElsewhere names.
func TestEveryInstrumentMoves(t *testing.T) {
	var snaps []*metrics.Snapshot
	snaps = append(snaps, catalogRun(t, 2, shard.Config{})...)
	snaps = append(snaps, catalogRun(t, 1, shard.Config{ShardBits: 2})...)

	moved := map[string]bool{}
	for _, s := range snaps {
		for name, v := range s.Counters {
			moved[family(name)] = moved[family(name)] || v > 0
		}
		for name, v := range s.Gauges {
			moved[family(name)] = moved[family(name)] || v > 0
		}
		for name, h := range s.Histograms {
			moved[family(name)] = moved[family(name)] || h.Count > 0
		}
	}
	names := map[string]bool{}
	for name := range moved {
		names[name] = true
	}
	for name := range names {
		if movedElsewhere[name] == "" && !moved[name] {
			t.Errorf("%s never moved", name)
		}
	}
	for name := range movedElsewhere {
		if !names[name] {
			t.Errorf("movedElsewhere names %s, which the catalog does not register", name)
		}
	}
}

// family strips a vec instrument's label set: a vec moves when any of
// its members does.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// catalogSession is one client connection that feeds every answer it
// reads to an extractor counting into the root's catalog.
type catalogSession struct {
	conn    *netclient.Conn
	answers atomic.Int64
	done    chan struct{}
}

func dialSession(t *testing.T, addr string, id int, cat *metrics.Catalog, qs []query.Query) *catalogSession {
	t.Helper()
	conn, err := netclient.Dial(addr, id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ext := client.New(id, qs...)
	ext.SetMetrics(cat.ClientKeptTuples, cat.ClientFilteredMessages)
	s := &catalogSession{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			ev, err := conn.Next()
			if err != nil {
				return
			}
			if ev.Answer != nil {
				ext.HandleAt(ev.Answer, time.Now().UnixNano())
				s.answers.Add(1)
			}
		}
	}()
	for _, q := range qs {
		if err := conn.Subscribe(q); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// catalogRun drives the scenario against one root daemon and one relay
// and returns snapshots of both registries, taken after each cycle and
// once the sessions have gone idle.
func catalogRun(t *testing.T, channels int, sharding shard.Config) []*metrics.Snapshot {
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
	}
	d, err := daemon.New(rel, channels, server.Config{
		Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 5},
		Strategy: chanalloc.BestOfBoth,
		Seed:     1,
		Sharding: sharding,
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
	rl, err := relay.New(relay.Config{Upstream: ln.Addr().String(), RelayID: 1 << 30,
		MinBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relayed := make(chan error, 1)
	go func() { relayed <- rl.Run(ctx, rln) }()
	t.Cleanup(func() {
		cancel()
		rln.Close()
		<-relayed
		d.Close()
		ln.Close()
	})
	waitUntil(t, "the relay feed", func() bool { return rl.Status().Relay.Connected })

	cat := d.Metrics()
	var snaps []*metrics.Snapshot
	snap := func() { snaps = append(snaps, cat.Snapshot(), rl.Metrics().Snapshot()) }
	// Each client's queries overlap, so they merge; the two clients sit
	// in opposite quadrants, so they land in different shards and share
	// no message.
	rect := func(id query.ID, x, y float64) query.Query { return query.Range(id, geom.RectWH(x, y, 120, 120)) }
	directQs := []query.Query{rect(1, 100, 100), rect(2, 160, 120), rect(3, 120, 180), rect(4, 180, 180)}
	relayedQs := []query.Query{rect(1, 600, 600), rect(2, 660, 620), rect(3, 620, 680), rect(4, 680, 680)}
	direct := dialSession(t, ln.Addr().String(), 1, cat, directQs)
	far := dialSession(t, rln.Addr().String(), 2, cat, relayedQs)
	registered := func(n int) {
		t.Helper()
		waitUntil(t, "the registry", func() bool { return d.Server().SubscriptionCount() == n })
	}
	cycle := func(delta bool) {
		t.Helper()
		if _, err := d.RunCycle(delta); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "answers", func() bool { return direct.answers.Load() > 0 && far.answers.Load() > 0 })
		snap()
	}

	// Plan and a full publish.
	registered(8)
	cycle(false)

	// Churn: one query swapped, replanned around; inserts and deletes
	// ride the delta publish.
	if err := direct.conn.Unsubscribe(4); err != nil {
		t.Fatal(err)
	}
	registered(7)
	if err := direct.conn.Subscribe(rect(5, 200, 140)); err != nil {
		t.Fatal(err)
	}
	registered(8)
	for i := 0; i < 100; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("new"))
	}
	for id := uint64(1); id <= 40; id++ {
		rel.Delete(id)
	}
	cycle(true)

	// A Refresh through the relay, answered by the next cycle.
	if err := far.conn.Refresh(); err != nil {
		t.Fatal(err)
	}
	cycle(true)

	// A redial with the same id supersedes the first connection.
	redial := dialSession(t, ln.Addr().String(), 1, cat, append(directQs[:3:3], rect(5, 200, 140)))
	<-direct.done
	registered(8)
	direct = redial
	cycle(true)

	// Staleness is time since a session's last write: the relay's status
	// sweep, run once its sessions have sat idle, sees it.
	waitUntil(t, "staleness", func() bool {
		rl.Status()
		return rl.Metrics().SessionMaxStaleMs.Load() > 0
	})
	snap()
	return snaps
}

func waitUntil(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !pred() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
