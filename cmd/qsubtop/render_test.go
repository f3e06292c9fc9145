package main

import (
	"strings"
	"testing"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/fanout"
	"qsub/internal/metrics"
)

// statusFixture builds a /statusz document the way a live daemon would:
// through a real catalog, so histogram keys and gauge names can never
// drift from what qsubd serves.
func statusFixture(cycles uint64, deliveries uint64) *daemon.Status {
	cat := metrics.NewCatalog(0)
	for i := uint64(0); i < deliveries; i++ {
		cat.FanoutDeliveries.Inc()
		cat.FanoutFramesWritten.Inc()
		cat.FanoutBytes.Add(100)
	}
	cat.CycleStageSeconds.At("plan").Observe(0.010)
	cat.CycleStageSeconds.At("encode").Observe(0.002)
	cat.CycleStageSeconds.At("fanout").Observe(0.001)
	cat.CycleStageSeconds.At("write").Observe(0.004)
	cat.SessionMaxSeqLag.Set(3)
	cat.SessionMaxQueueDepth.Set(7)
	cat.SessionMaxStaleMs.Set(150)
	cat.SessionLagSeconds.Observe(0.150)

	recs := make([]daemon.CycleRecord, 0, cycles)
	for c := uint64(1); c <= cycles; c++ {
		recs = append(recs, daemon.CycleRecord{
			Cycle: c, Mode: "full", Sharded: true,
			Messages: 40, PayloadBytes: 2048,
			PlanSeconds: 0.010, EncodeSeconds: 0.002,
			FanoutSeconds: 0.001, WriteSeconds: 0.004,
		})
	}
	return &daemon.Status{
		Channels: 4, Sessions: 2, Replans: 1,
		Plan:         &daemon.PlanSummary{Queries: 10, MergedSets: 4, EstimatedCost: 100, InitialCost: 400},
		RecentCycles: recs,
		Laggards: []fanout.SessionLag{
			{ClientID: 7, Channel: 2, SeqLag: 3, QueueDepth: 7, StalenessMs: 150},
			{ClientID: 4, Channel: 1, SeqLag: 0, QueueDepth: 0, StalenessMs: 20},
		},
		Build:   &daemon.BuildInfo{GoVersion: "go1.24", Revision: "abcdef1234567890", GOMAXPROCS: 8, NumCPU: 8},
		Metrics: cat.Snapshot(),
	}
}

func TestRenderSections(t *testing.T) {
	prev := statusFixture(2, 100)
	cur := statusFixture(4, 300)
	out := render(prev, cur, 2*time.Second, 10)

	for _, want := range []string{
		"qsubtop",
		"build abcdef123456 (go1.24)", // revision truncated to 12
		"sessions 2",
		"10 queries → 4 sets",
		"throughput",
		"100.0 frames/s", // (300-100)/2s
		"1.00 cycles/s",  // ledger ordinal 2→4 over 2s
		"pipeline stages",
		"plan",
		"encode",
		"fanout",
		"write",
		"recent cycles",
		"full/sharded",
		"lag watermarks   seq lag 3   queue depth 7   staleness 150ms",
		"staleness        p50",
		"laggiest sessions (top 10)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q\n---\n%s", want, out)
		}
	}
	// Laggards render worst-first with their fields.
	i7, i4 := strings.Index(out, "       7        2        3"), strings.Index(out, "       4        1        0")
	if i7 < 0 || i4 < 0 || i7 > i4 {
		t.Errorf("laggard rows missing or misordered (7 at %d, 4 at %d)\n---\n%s", i7, i4, out)
	}
}

func TestRenderFirstPollAndTruncation(t *testing.T) {
	cur := statusFixture(10, 100)
	out := render(nil, cur, 0, 1)
	if strings.Contains(out, "throughput") {
		t.Error("first poll has no previous sample, must not render rates")
	}
	// Only the newest 5 ledger records render.
	if strings.Contains(out, "\n       1 full") {
		t.Errorf("cycle 1 rendered despite 10 records\n---\n%s", out)
	}
	if !strings.Contains(out, "      10 full") {
		t.Errorf("newest cycle missing\n---\n%s", out)
	}
	// topN=1 keeps only the worst laggard.
	if strings.Contains(out, "\n         4 ") {
		t.Errorf("second laggard rendered despite -n 1\n---\n%s", out)
	}
}

func TestRenderPendingWrite(t *testing.T) {
	cur := statusFixture(1, 1)
	cur.RecentCycles[0].WritePending = true
	out := render(nil, cur, 0, 5)
	if !strings.Contains(out, "pending") {
		t.Errorf("pending write stage not marked\n---\n%s", out)
	}
}

// TestRenderShardsAndMoved pins the planner columns of the cycle table:
// tasks solved/reused beside the mode, "-" for a cycle that ran no
// sharded plan, and the sessions the plan moved.
func TestRenderShardsAndMoved(t *testing.T) {
	cur := statusFixture(2, 1)
	cur.RecentCycles[1].Mode = "incremental"
	cur.RecentCycles[1].ShardsSolved, cur.RecentCycles[1].ShardsReused = 12, 100
	cur.RecentCycles[1].SessionsMoved = 3
	out := render(nil, cur, 0, 5)
	for _, want := range []string{
		"shards moved",
		"full/sharded         -     0",
		"incremental/sharded    12/100     3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q\n---\n%s", want, out)
		}
	}
}

// TestRenderRelayStatus pins the relay stanza: pointed at a relay tier,
// qsubtop shows the upstream link and the ingest rate next to the
// downstream fan-out throughput.
func TestRenderRelayStatus(t *testing.T) {
	fixture := func(frames uint64) *daemon.Status {
		st := statusFixture(0, frames)
		st.Plan = nil
		st.RecentCycles = nil
		st.Relay = &daemon.RelayInfo{
			Upstream:   "10.0.0.1:7070",
			Hop:        2,
			Connected:  true,
			Reconnects: 3,
			Channels:   8,
			Clients:    42,
		}
		return st
	}
	prev, cur := fixture(100), fixture(300)
	// Advance the current sample's ingest counters directly: 200 frames
	// over the 2s window → 100/s.
	cur.Metrics.Counters["qsub_relay_frames_total"] = 200
	cur.Metrics.Counters["qsub_relay_bytes_total"] = 20000
	prev.Metrics.Counters["qsub_relay_frames_total"] = 0
	prev.Metrics.Counters["qsub_relay_bytes_total"] = 0

	out := render(prev, cur, 2*time.Second, 10)
	for _, want := range []string{
		"relay hop 2   upstream 10.0.0.1:7070 (connected)   clients 42   reconnects 3",
		"relay ingest",
		"100.0 frames/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("relay render missing %q\n---\n%s", want, out)
		}
	}

	cur.Relay.Connected = false
	out = render(nil, cur, 0, 10)
	if !strings.Contains(out, "(DISCONNECTED)") {
		t.Errorf("disconnected relay not flagged\n---\n%s", out)
	}
}

func TestRenderAcrossDaemonRestart(t *testing.T) {
	// The daemon restarted between polls: every counter and the ledger
	// ordinal reset, so the current sample is *smaller* than the
	// previous one. The uint64 deltas must clamp to "rate from zero",
	// never underflow to ~1.8e19/s.
	prev := statusFixture(40, 3000)
	cur := statusFixture(2, 100)
	out := render(prev, cur, 2*time.Second, 10)

	if strings.Contains(out, "e+19") || strings.Contains(out, "e+18") {
		t.Errorf("restart render underflowed a counter delta\n---\n%s", out)
	}
	for _, want := range []string{
		"50.0 frames/s", // (100-0)/2s, rated from the reset counter alone
		"1.00 cycles/s", // ledger ordinal 0→2 over 2s
	} {
		if !strings.Contains(out, want) {
			t.Errorf("restart render missing %q\n---\n%s", want, out)
		}
	}
}
