package daemon

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"qsub/internal/admin"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/shard"
)

// runObservedCycles connects n clients, runs one full cycle and two
// delta cycles with churn, and returns the daemon plus its conns'
// received answers (drained in the background).
func startObservedDaemon(t *testing.T, clients int) (*Daemon, []*netclient.Conn) {
	t.Helper()
	d, addr := startDaemon(t, 2)
	conns := make([]*netclient.Conn, clients)
	for i := 0; i < clients; i++ {
		conn, err := netclient.Dial(addr, i+1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.Subscribe(query.Range(query.ID(i+1), geom.R(0, 0, 900, 900))); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	waitForSubscriptions(t, d, clients)
	return d, conns
}

// TestCycleLedgerRecordsStages pins the pipeline ledger: each RunCycle
// leaves one record carrying the cycle ordinal, the replan mode and
// non-negative stage timings, and the write stage finalizes once the
// forwarders drain.
func TestCycleLedgerRecordsStages(t *testing.T) {
	d, conns := startObservedDaemon(t, 3)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for _, conn := range conns {
			for {
				ev, err := conn.Next()
				if err != nil {
					break
				}
				if ev.Answer != nil && ev.Answer.PublishedUnixNano == 0 {
					t.Error("answer frame missing publish timestamp")
				}
			}
		}
	}()

	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunCycle(true); err != nil {
		t.Fatal(err)
	}

	recs := d.RecentCycles()
	if len(recs) != 2 {
		t.Fatalf("ledger has %d records, want 2", len(recs))
	}
	if recs[0].Cycle != 1 || recs[1].Cycle != 2 {
		t.Fatalf("cycle ordinals %d, %d, want 1, 2", recs[0].Cycle, recs[1].Cycle)
	}
	if recs[0].Mode != "full" {
		t.Errorf("first cycle mode %q, want full (cold plan)", recs[0].Mode)
	}
	if recs[1].Mode != "cached" {
		t.Errorf("second cycle mode %q, want cached (no churn)", recs[1].Mode)
	}
	if recs[0].Delta || !recs[1].Delta {
		t.Errorf("delta flags %v, %v, want false, true", recs[0].Delta, recs[1].Delta)
	}
	if recs[0].Messages == 0 || recs[0].PayloadBytes == 0 {
		t.Errorf("first cycle published nothing: %+v", recs[0])
	}
	if recs[0].PlanSeconds <= 0 {
		t.Errorf("first cycle plan stage %v, want > 0", recs[0].PlanSeconds)
	}
	if recs[1].PlanSeconds != 0 {
		t.Errorf("cached cycle recorded plan time %v, want 0", recs[1].PlanSeconds)
	}
	if recs[0].EncodeSeconds < 0 || recs[0].FanoutSeconds < 0 {
		t.Errorf("negative stage timing: %+v", recs[0])
	}

	// The write stage finalizes asynchronously once forwarders drain.
	deadline := time.After(5 * time.Second)
	for {
		recs = d.RecentCycles()
		if !recs[0].WritePending && !recs[1].WritePending {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("write stage never finalized: %+v", recs)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := d.metrics.CycleStageSeconds.At("write").Count(); got < 2 {
		t.Errorf("write-stage histogram count %d, want >= 2", got)
	}
	if got := d.metrics.CycleStageSeconds.At("plan").Count(); got != 2 {
		t.Errorf("plan-stage histogram count %d, want 2", got)
	}

	d.Shutdown()
	<-drained
}

// TestLagWatermarksAndRestartReset pins the per-session lag pass: after
// a cycle the connected-sessions gauge and lag watermarks are live, and
// a fresh daemon (restart) starts every lag gauge at zero rather than
// inheriting stale values.
func TestLagWatermarksAndRestartReset(t *testing.T) {
	d, conns := startObservedDaemon(t, 2)
	go func() {
		for _, conn := range conns {
			for {
				if _, err := conn.Next(); err != nil {
					break
				}
			}
		}
	}()
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	if got := d.metrics.SessionsConnected.Load(); got != 2 {
		t.Errorf("sessions-connected gauge %d, want 2", got)
	}
	lags := d.hub.TopLaggards(10)
	if len(lags) != 2 {
		t.Fatalf("laggard sweep found %d sessions, want 2", len(lags))
	}
	for _, l := range lags {
		if l.Channel < 0 {
			t.Errorf("client %d unbound after a cycle", l.ClientID)
		}
		if l.StalenessMs < 0 || l.SeqLag > 1<<40 {
			t.Errorf("implausible lag snapshot: %+v", l)
		}
	}
	if d.metrics.SessionLagSeconds.Count() == 0 {
		t.Error("session-lag histogram never observed")
	}
	d.Shutdown()

	// Restart: a fresh daemon owns a fresh catalog, so every lag gauge
	// and watermark must read zero before its first cycle.
	fresh, _ := startDaemon(t, 2)
	if got := fresh.metrics.SessionsConnected.Load(); got != 0 {
		t.Errorf("fresh daemon sessions-connected gauge %d, want 0", got)
	}
	if got := fresh.metrics.SessionMaxSeqLag.Load(); got != 0 {
		t.Errorf("fresh daemon max-seq-lag gauge %d, want 0", got)
	}
	if got := fresh.metrics.SessionMaxStaleMs.Load(); got != 0 {
		t.Errorf("fresh daemon staleness gauge %d, want 0", got)
	}
	if got := fresh.metrics.SessionLagSeconds.Count(); got != 0 {
		t.Errorf("fresh daemon lag histogram count %d, want 0", got)
	}
	// And with no sessions, the watermark pass holds the gauges at zero.
	fresh.hub.UpdateLagWatermarks()
	if got := fresh.metrics.SessionMaxStaleMs.Load(); got != 0 {
		t.Errorf("empty watermark pass set staleness gauge to %d", got)
	}
}

// TestStatuszAndBuildinfo pins the admin surface: /statusz carries the
// cycle ledger, laggards and build stanza alongside the metrics
// snapshot, and /buildinfo serves the build stanza alone.
func TestStatuszAndBuildinfo(t *testing.T) {
	d, conns := startObservedDaemon(t, 2)
	go func() {
		for _, conn := range conns {
			for {
				if _, err := conn.Next(); err != nil {
					break
				}
			}
		}
	}()
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	mux := d.AdminMux()

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	var st admin.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	if len(st.RecentCycles) != 1 {
		t.Errorf("/statusz has %d ledger records, want 1", len(st.RecentCycles))
	}
	if len(st.Laggards) != 2 {
		t.Errorf("/statusz has %d laggards, want 2", len(st.Laggards))
	}
	if st.Build == nil || st.Build.GoVersion == "" {
		t.Errorf("/statusz build stanza missing: %+v", st.Build)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/buildinfo", nil))
	var bi admin.BuildInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &bi); err != nil {
		t.Fatalf("buildinfo decode: %v", err)
	}
	if bi.GoVersion == "" || bi.GOMAXPROCS <= 0 || bi.NumCPU <= 0 {
		t.Errorf("implausible build info: %+v", bi)
	}
}

// TestStatuszShardedFollowsPlan: a ledger record is marked sharded when
// its cycle's plan split a channel's queries into more than one shard,
// which is what the planner did with the subscriptions, not what the
// configuration allows. With four shards configured, queries in every
// quadrant make a sharded plan, a cycle without a replan carries that
// plan's mark, and once only one quadrant is subscribed the plan is one
// shard and the mark goes.
func TestStatuszShardedFollowsPlan(t *testing.T) {
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 10, 10)
	for x := 50.0; x < 1000; x += 100 {
		rel.Insert(geom.Pt(x, x), []byte("obj"))
	}
	d, err := New(rel, 1, server.Config{
		Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 5},
		Sharding: shard.Config{ShardBits: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	corners := []geom.Rect{geom.R(0, 0, 100, 100), geom.R(900, 0, 1000, 100), geom.R(0, 900, 100, 1000), geom.R(900, 900, 1000, 1000)}
	for i, r := range corners {
		if err := d.srv.Subscribe(i+1, query.Range(1, r)); err != nil {
			t.Fatal(err)
		}
	}
	sharded := func() []bool {
		rr := httptest.NewRecorder()
		d.AdminMux().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
		var st admin.Status
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatalf("statusz decode: %v", err)
		}
		var out []bool
		for _, rec := range st.RecentCycles {
			out = append(out, rec.Sharded)
		}
		return out
	}
	d.markDirty()
	for k := 0; k < 2; k++ {
		if _, err := d.RunCycle(false); err != nil {
			t.Fatal(err)
		}
	}
	for id := 2; id <= len(corners); id++ {
		d.srv.Release(id)
	}
	d.markDirty()
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	if got, want := sharded(), []bool{true, true, false}; !slices.Equal(got, want) {
		t.Fatalf("/statusz sharded marks %v, want %v (planned, cached, replanned on one quadrant)", got, want)
	}
}
