// Package loadtest is the real-socket fan-out load harness: it drives
// thousands of concurrent netclient sessions against one daemon over
// loopback TCP and measures delivery throughput, per-frame latency
// percentiles, encodes per cycle and bytes per cycle — the numbers
// behind the encode-once speedup claim.
//
// The harness runs in lockstep: every session subscribes one tiny
// disjoint query, the daemon plans once, and each measured cycle
// publishes one (empty-delta) message per planned set per channel. A
// session on channel ch receives every message published on ch, so the
// exact per-cycle frame volume is Σ messages(ch) × sessions(ch). The
// driver reads the per-channel message counts from the daemon's own
// counters after each publish rather than predicting them from the
// workload shape — the sharded planner is free to merge queries within
// a shard, and the accounting stays exact either way. Counting frames
// against that exact expectation is what lets the driver detect cycle
// completion without guessing with sleeps.
//
// Fan-out wall time is measured publish start → last answer frame
// handed to the kernel (the daemon's frames-written counter), because
// that is the work the fan-out engine owns; receivers drain their
// sockets concurrently and the end-to-end delivery-latency percentiles
// cover that half. On a multi-core host the distinction is invisible;
// on a single-core host it keeps receiver decode time from being
// serialized into the fan-out measurement.
//
// Two deployments share the same driver:
//
//   - in-process: daemon and sessions in one process (Run over a
//     *Server). Needs ~2 fds per session, so it is capped by RLIMIT_NOFILE.
//   - split-process: the daemon runs in a child process speaking a
//     line protocol on its stdin/stdout (ServeProtocol), the driver runs
//     the sessions in the parent (Run over a *ProcControl). Each process
//     needs only ~1 fd per session, which is what lets 10k+ sessions fit
//     under a 20k fd limit. Latencies compare wall-clock timestamps
//     across the two processes, which share a machine and therefore a
//     clock.
package loadtest

import (
	"context"
	"fmt"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/cost"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/relay"
	"qsub/internal/server"
	"qsub/internal/shard"
)

// Config parameterizes one harness run. The same Config must be used
// for the server and driver halves (the split-process child receives it
// via flags) so both derive the same workload geometry.
type Config struct {
	// Sessions is the number of concurrent netclient sessions (one
	// subscription each).
	Sessions int
	// Channels is the multicast channel count (default 8; large runs
	// want 64 so per-cycle frame volume sessions²/channels stays sane).
	Channels int
	// Cycles is the number of measured delta cycles after the
	// bootstrap full cycle (default 3).
	Cycles int
	// Relays, when positive, inserts a relay tier between the daemon and
	// the sessions: that many internal/relay instances run in the driver
	// process, each feeding from the daemon as one privileged session,
	// and the netclient sessions dial the relays round-robin instead of
	// the daemon. The root then writes each message once per relay
	// rather than once per session — the hierarchical fan-out claim —
	// and the harness cross-checks both tiers' counters exactly.
	Relays int
	// SubscriberBuffer overrides the per-session delivery queue depth;
	// 0 derives 2·sessions/channels + 64, enough that a full lockstep
	// cycle never blocks the publisher for long.
	SubscriberBuffer int
	// Timeout bounds every phase (subscription settling, each cycle's
	// delivery); 0 means 5 minutes.
	Timeout time.Duration
	// Logf receives progress diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Channels <= 0 {
		c.Channels = 8
	}
	if c.Cycles <= 0 {
		c.Cycles = 3
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 2*c.Sessions/c.Channels + 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Minute
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// sessionQuery returns session i's subscription: a unit cell of its
// own, disjoint from every other session's, so every delivered tuple is
// relevant and the fan-out cost under test is pure delivery, not
// filtering.
func sessionQuery(i int) query.Query {
	x := float64(i)
	return query.Range(query.ID(i+1), geom.R(x+0.05, 0.05, x+0.95, 0.95))
}

// worldBounds is the relation extent covering every session cell.
func worldBounds(sessions int) geom.Rect {
	return geom.R(0, 0, float64(sessions), 1)
}

// ServerStats is the daemon-side counter snapshot the driver diffs
// around the measured window.
type ServerStats struct {
	Encodes    uint64
	Bytes      uint64
	Deliveries uint64
	// FramesWritten counts answer frames the session writers handed to the
	// kernel — the fan-out flush-complete signal the driver's wall clock
	// stops on.
	FramesWritten uint64
	// Flushes counts socket flushes; FramesWritten/Flushes is the
	// achieved write-coalescing factor.
	Flushes uint64
	// ChannelMessages is the cumulative published-message count per
	// channel. The driver diffs consecutive snapshots to learn how many
	// messages each cycle actually put on each channel — the sharded
	// planner may merge queries, so this cannot be assumed from the
	// workload shape.
	ChannelMessages []uint64
}

// messages sums the per-channel counts.
func (st ServerStats) messages() uint64 {
	var n uint64
	for _, m := range st.ChannelMessages {
		n += m
	}
	return n
}

// Control is the driver's handle on the daemon half, implemented
// in-process by *Server and across a process boundary by *ProcControl.
type Control interface {
	// Addr is the daemon's TCP address.
	Addr() string
	// Await blocks until n subscriptions are registered.
	Await(n int) error
	// Bootstrap runs the planning cycle (full answers): sessions get
	// their channel assignment and first answer frames.
	Bootstrap() error
	// Cycle runs one measured delta cycle and returns its fan-out wall
	// time: publish start → last answer frame handed to the kernel,
	// measured inside the daemon half so driver-side scheduling never
	// inflates it.
	Cycle() (time.Duration, error)
	// Stats snapshots the fan-out counters.
	Stats() (ServerStats, error)
	// Close shuts the daemon down.
	Close() error
}

// Server is the daemon half of the harness: a relation with one tuple
// per session cell, a daemon configured for lockstep load (KM = 0,
// sharded planning, Block slow-consumer policy) and a loopback listener.
type Server struct {
	Daemon *daemon.Daemon
	ln     net.Listener
	cfg    Config
}

// NewServer builds and starts serving the harness daemon.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("loadtest: Sessions must be positive, got %d", cfg.Sessions)
	}
	rel, err := relation.New(worldBounds(cfg.Sessions), 64, 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Sessions; i++ {
		rel.Insert(geom.Pt(float64(i)+0.5, 0.5), []byte("t"))
	}
	d, err := daemon.New(rel, cfg.Channels, server.Config{
		// KM = K6 = 0: merging never pays — not even inside a shard,
		// where the pipeline adds K6·listeners to the effective KM — so
		// the plan keeps one message per query and every session receives
		// sessions/channels frames per cycle. (The driver does not rely
		// on this: it derives expected counts from the daemon's
		// per-channel message counters either way.)
		Model: cost.Model{KM: 0, KT: 1, KU: 1, K6: 0},
		Seed:  1,
		// Sharded planning keeps the one-off plan fast at 10k+ queries.
		Sharding: shard.Config{ShardBits: 8},
	})
	if err != nil {
		return nil, err
	}
	d.SlowPolicy = multicast.Block
	d.SubscriberBuffer = cfg.SubscriberBuffer
	d.WriteTimeout = cfg.Timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	go d.Serve(context.Background(), ln)
	return &Server{Daemon: d, ln: ln, cfg: cfg}, nil
}

// Addr returns the daemon's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Await polls the subscription registry until n subscriptions arrived.
func (s *Server) Await(n int) error {
	deadline := time.Now().Add(s.cfg.Timeout)
	for {
		if got := s.Daemon.Server().SubscriptionCount(); got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadtest: %d/%d subscriptions after %s",
				s.Daemon.Server().SubscriptionCount(), n, s.cfg.Timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Bootstrap runs the planning cycle with full answers.
func (s *Server) Bootstrap() error {
	_, err := s.Daemon.RunCycle(false)
	return err
}

// Cycle runs one measured delta cycle and measures its fan-out wall
// time in-process: publish start → frames-written caught up with the
// cycle's deliveries. The delivery counter is final the moment RunCycle
// returns (sends happen inside Publish), so the flush target is exact;
// the session writers only lag it by their in-flight queues.
func (s *Server) Cycle() (time.Duration, error) {
	cat := s.Daemon.Metrics()
	baseWritten := cat.FanoutFramesWritten.Load()
	baseDelivered := cat.FanoutDeliveries.Load()
	start := time.Now()
	if _, err := s.Daemon.RunCycle(true); err != nil {
		return 0, err
	}
	target := baseWritten + (cat.FanoutDeliveries.Load() - baseDelivered)
	deadline := start.Add(s.cfg.Timeout)
	for cat.FanoutFramesWritten.Load() < target {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("loadtest: cycle flush timed out (written %d/%d)",
				cat.FanoutFramesWritten.Load(), target)
		}
		runtime.Gosched()
	}
	return time.Since(start), nil
}

// Stats snapshots the fan-out counters.
func (s *Server) Stats() (ServerStats, error) {
	cat := s.Daemon.Metrics()
	st := ServerStats{
		Encodes:       cat.FanoutEncodes.Load(),
		Bytes:         cat.FanoutBytes.Load(),
		Deliveries:    cat.FanoutDeliveries.Load(),
		FramesWritten: cat.FanoutFramesWritten.Load(),
		Flushes:       cat.FanoutFlushes.Load(),
	}
	st.ChannelMessages = make([]uint64, cat.ChannelMessages.Len())
	for i := range st.ChannelMessages {
		st.ChannelMessages[i] = cat.ChannelMessages.At(i).Load()
	}
	return st, nil
}

// Close shuts the daemon down gracefully.
func (s *Server) Close() error {
	s.Daemon.Shutdown()
	return s.ln.Close()
}

// Result is one harness run's measurements. Counter fields are deltas
// over the measured window (bootstrap excluded).
type Result struct {
	Sessions, Channels, Cycles int
	// Relays is the relay-tier width (0 = sessions dialed the daemon
	// directly). With relays, Wall and the percentiles cover the full
	// two-hop delivery, and the bench name gains a /relays=N segment so
	// relay rows never compare against direct-deployment baselines.
	Relays int

	// FramesPerCycle is the exact per-cycle delivery volume
	// (Σ messages(ch) × sessions(ch) over channels).
	FramesPerCycle uint64
	// Frames is the total answer frames received in the measured window.
	Frames uint64
	// Messages is the total messages published in the measured window,
	// from the daemon's per-channel counters. Encodes == Messages — the
	// encode-once contract.
	Messages uint64
	// Wall is the summed fan-out wall time of the measured cycles:
	// publish start → last answer frame handed to the kernel. Session
	// receipt continues concurrently; the latency percentiles cover it.
	Wall time.Duration
	// FramesPerSec is the fan-out throughput, Frames / Wall.
	FramesPerSec float64
	// P50 and P99 are end-to-end delivery-latency percentiles (cycle
	// start → frame arrival at the session).
	P50, P99 time.Duration

	// LatencyP50/P90/P99/Max are true publish→receive latency
	// percentiles, computed from the publish timestamp each answer
	// frame carries (stamped at seq assignment in the daemon) against
	// the session's receive clock. Unlike P50/P99 above they exclude
	// the plan stage and start each frame's clock at its own publish,
	// so they are the per-frame delivery-latency numbers. Zero when the
	// daemon ran with timestamps disabled. LatencySamples counts the
	// measured frames.
	LatencyP50, LatencyP90, LatencyP99, LatencyMax time.Duration
	LatencySamples                                 uint64

	// Daemon-side counter deltas over the measured window.
	Encodes, FanoutBytes, Deliveries uint64
	// Flushes is the socket-flush count of the measured window;
	// Frames/Flushes is the achieved write-coalescing factor.
	Flushes uint64
}

// EncodesPerCycle is the measured average encodes per publish cycle.
func (r Result) EncodesPerCycle() float64 {
	return float64(r.Encodes) / float64(r.Cycles)
}

// BytesPerCycle is the measured average fan-out bytes per publish cycle.
func (r Result) BytesPerCycle() float64 {
	return float64(r.FanoutBytes) / float64(r.Cycles)
}

// benchName builds the bench identifier shared by BenchLine and
// LatencyBenchLine. Relay runs get their own /relays=N name segment so
// they never line up against direct-deployment rows; mode=shared is the
// row name the historical fan-out tables in EXPERIMENTS.md carry.
func (r Result) benchName(prefix string) string {
	name := fmt.Sprintf("%s/sessions=%d/channels=%d/mode=shared", prefix, r.Sessions, r.Channels)
	if r.Relays > 0 {
		name += fmt.Sprintf("/relays=%d", r.Relays)
	}
	return name
}

// BenchLine formats the result as one `go test -bench` style line (ns/op
// is fan-out wall time per cycle), so it reads like the Go benchmarks'
// output.
func (r Result) BenchLine() string {
	return fmt.Sprintf(
		"%s \t%d\t%.0f ns/op\t%.0f frames/s\t%.3f p50-ms\t%.3f p99-ms\t%.0f encodes/cycle\t%.0f bytes/cycle",
		r.benchName("BenchmarkFanout"), r.Cycles,
		float64(r.Wall.Nanoseconds())/float64(r.Cycles),
		r.FramesPerSec,
		float64(r.P50.Microseconds())/1000,
		float64(r.P99.Microseconds())/1000,
		r.EncodesPerCycle(), r.BytesPerCycle())
}

// LatencyBenchLine formats the publish→receive latency numbers as one
// `go test -bench` style line; ns/op carries the p99.
func (r Result) LatencyBenchLine() string {
	return fmt.Sprintf(
		"%s \t%d\t%d ns/op\t%.3f p50-ms\t%.3f p90-ms\t%.3f p99-ms\t%.3f max-ms\t%d samples",
		r.benchName("BenchmarkLatency"), r.Cycles,
		r.LatencyP99.Nanoseconds(),
		float64(r.LatencyP50.Microseconds())/1000,
		float64(r.LatencyP90.Microseconds())/1000,
		float64(r.LatencyP99.Microseconds())/1000,
		float64(r.LatencyMax.Microseconds())/1000,
		r.LatencySamples)
}

// latHist is a lock-free log-linear latency histogram: microsecond
// exact under 16µs, then 16 minor buckets per power of two (≤6.25%
// error), covering past an hour. Concurrent Record calls are safe.
const latBuckets = 16 * 48

type latHist struct {
	buckets  [latBuckets]atomic.Uint64
	count    atomic.Uint64
	maxNanos atomic.Int64
}

func latBucket(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	if us < 16 {
		return int(us)
	}
	exp := bits.Len64(uint64(us)) - 5 // us ≥ 16 → exp ≥ 0
	b := 16 + exp*16 + int(us>>uint(exp)) - 16
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// latValue returns the lower bound of bucket b's range.
func latValue(b int) time.Duration {
	if b < 16 {
		return time.Duration(b) * time.Microsecond
	}
	exp := uint((b - 16) / 16)
	minor := int64((b-16)%16 + 16)
	return time.Duration(minor<<exp) * time.Microsecond
}

func (h *latHist) Record(d time.Duration) {
	h.buckets[latBucket(d)].Add(1)
	h.count.Add(1)
	for {
		cur := h.maxNanos.Load()
		if int64(d) <= cur || h.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func (h *latHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.maxNanos.Store(0)
}

// Max returns the largest recorded latency, exact (not bucketed).
func (h *latHist) Max() time.Duration { return time.Duration(h.maxNanos.Load()) }

// Percentile returns the latency at quantile q in [0, 1].
func (h *latHist) Percentile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			return latValue(i)
		}
	}
	return latValue(latBuckets - 1)
}

// Run drives cfg.Sessions netclient sessions against the daemon behind
// ctl and measures cfg.Cycles lockstep delta cycles. ctl is NOT closed;
// the caller owns it (so a test can inspect the daemon afterwards).
func Run(ctl Control, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Sessions <= 0 {
		return Result{}, fmt.Errorf("loadtest: Sessions must be positive, got %d", cfg.Sessions)
	}

	type sessionState struct {
		channel atomic.Int32
	}
	states := make([]sessionState, cfg.Sessions)
	var (
		assigned   atomic.Int32
		total      atomic.Uint64
		cycleStart atomic.Int64 // UnixNano of the in-flight cycle
		measuring  atomic.Bool
		hist       latHist
		e2e        latHist // publish→receive, from frame timestamps
	)

	// With a relay tier, the relays run in this process (each is pure
	// fan-out — goroutines and sockets, no database) and the sessions
	// dial them round-robin. Each relay subscribes every channel
	// upstream, so the root's per-message write volume is exactly one
	// frame per relay. The relays are torn down after the sessions
	// (defers run LIFO), so no session sees its relay die first.
	addrs := []string{ctl.Addr()}
	relays := make([]*relay.Relay, 0, cfg.Relays)
	relayCtx, relayCancel := context.WithCancel(context.Background())
	var relayWG sync.WaitGroup
	defer func() {
		relayCancel()
		relayWG.Wait()
	}()
	if cfg.Relays > 0 {
		addrs = addrs[:0]
		for i := 0; i < cfg.Relays; i++ {
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return Result{}, err
			}
			rl, err := relay.New(relay.Config{
				Upstream:         ctl.Addr(),
				RelayID:          1<<30 + i,
				SubscriberBuffer: cfg.SubscriberBuffer,
				WriteTimeout:     cfg.Timeout,
				MinBackoff:       25 * time.Millisecond,
				MaxBackoff:       time.Second,
				JitterSeed:       int64(i + 1),
				Logf:             cfg.Logf,
			})
			if err != nil {
				rln.Close()
				return Result{}, err
			}
			relays = append(relays, rl)
			addrs = append(addrs, rln.Addr().String())
			relayWG.Add(1)
			go func() {
				defer relayWG.Done()
				if err := rl.Run(relayCtx, rln); err != nil {
					cfg.logf("loadtest: relay: %v", err)
				}
			}()
		}
		deadline := time.Now().Add(cfg.Timeout)
		for _, rl := range relays {
			for !rl.Status().Relay.Connected {
				if time.Now().After(deadline) {
					return Result{}, fmt.Errorf("loadtest: relay tier not connected upstream after %s", cfg.Timeout)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		cfg.logf("loadtest: %d relays feeding from %s", cfg.Relays, ctl.Addr())
	}
	// relayWritten/relayIngested sum the tier's flushed-frame and
	// upstream-ingest counters; exact once the tier is drained
	// (written == delivered on every relay, nothing left in a queue).
	relayWritten := func() uint64 {
		var n uint64
		for _, rl := range relays {
			n += rl.Metrics().FanoutFramesWritten.Load()
		}
		return n
	}
	relayIngested := func() uint64 {
		var n uint64
		for _, rl := range relays {
			n += rl.Metrics().RelayFrames.Load()
		}
		return n
	}
	relaysDrained := func() bool {
		for _, rl := range relays {
			m := rl.Metrics()
			if m.FanoutFramesWritten.Load() != m.FanoutDeliveries.Load() {
				return false
			}
		}
		return true
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		st := &states[i]
		nc, err := netclient.New(netclient.Config{
			Addr:       addrs[i%len(addrs)],
			ClientID:   i + 1,
			Queries:    []query.Query{sessionQuery(i)},
			MinBackoff: 50 * time.Millisecond,
			MaxBackoff: 2 * time.Second,
			JitterSeed: int64(i + 1),
			OnEvent: func(ev netclient.Event) {
				switch {
				case ev.Assigned != nil:
					if st.channel.CompareAndSwap(-1, int32(ev.Assigned.Channel)) {
						assigned.Add(1)
					}
				case ev.Answer != nil:
					if measuring.Load() {
						now := time.Now().UnixNano()
						hist.Record(time.Duration(now - cycleStart.Load()))
						if ts := ev.Answer.PublishedUnixNano; ts != 0 {
							e2e.Record(time.Duration(now - ts))
						}
					}
					total.Add(1)
				}
			},
		})
		if err != nil {
			return Result{}, err
		}
		st.channel.Store(-1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc.Run(ctx) // ends with ctx; dial errors retry internally
		}()
		if (i+1)%64 == 0 {
			// Stagger the dial storm so the accept backlog keeps up.
			time.Sleep(200 * time.Microsecond)
		}
	}
	// Always reap the session goroutines, even on error paths.
	defer func() {
		cancel()
		wg.Wait()
	}()

	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(cfg.Timeout)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("loadtest: timed out waiting for %s (assigned %d/%d, frames %d)",
					what, assigned.Load(), cfg.Sessions, total.Load())
			}
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}

	cfg.logf("loadtest: %d sessions dialing %s", cfg.Sessions, ctl.Addr())
	if err := ctl.Await(cfg.Sessions); err != nil {
		return Result{}, err
	}
	cfg.logf("loadtest: all subscriptions registered, planning")
	pre, err := ctl.Stats()
	if err != nil {
		return Result{}, err
	}
	if err := ctl.Bootstrap(); err != nil {
		return Result{}, err
	}
	if err := waitFor("channel assignments", func() bool {
		return int(assigned.Load()) == cfg.Sessions
	}); err != nil {
		return Result{}, err
	}

	// A session on channel ch receives every message published on ch, so
	// the exact delivery volume of a publish is Σ messages(ch) ×
	// sessions(ch). The message counts come from the daemon's own
	// per-channel counters (finalized when the publish call returns), so
	// the expectation stays exact even when the sharded planner merges
	// queries within a shard.
	counts := make([]uint64, cfg.Channels)
	for i := range states {
		ch := states[i].channel.Load()
		if ch < 0 || int(ch) >= cfg.Channels {
			return Result{}, fmt.Errorf("loadtest: session %d assigned invalid channel %d", i+1, ch)
		}
		counts[ch]++
	}
	expect := func(before, after ServerStats) (uint64, error) {
		if len(after.ChannelMessages) != cfg.Channels || len(before.ChannelMessages) != cfg.Channels {
			return 0, fmt.Errorf("loadtest: stats carried %d channel message counts, want %d",
				len(after.ChannelMessages), cfg.Channels)
		}
		var n uint64
		for ch, subs := range counts {
			n += (after.ChannelMessages[ch] - before.ChannelMessages[ch]) * subs
		}
		return n, nil
	}

	boot, err := ctl.Stats()
	if err != nil {
		return Result{}, err
	}
	bootFrames, err := expect(pre, boot)
	if err != nil {
		return Result{}, err
	}
	if err := waitFor("bootstrap deliveries", func() bool {
		return total.Load() >= bootFrames
	}); err != nil {
		return Result{}, err
	}
	if got := total.Load(); got != bootFrames {
		return Result{}, fmt.Errorf("loadtest: bootstrap delivered %d frames, want exactly %d", got, bootFrames)
	}

	// Counter deltas for the measured window start here, after the
	// bootstrap deliveries have fully drained. The relay tier counts a
	// flushed frame an instant after the session receives it, so drain
	// the tier (written caught up with delivered) before snapshotting.
	if err := waitFor("relay bootstrap flush", relaysDrained); err != nil {
		return Result{}, err
	}
	relayWrittenBase, relayIngestBase := relayWritten(), relayIngested()
	// The root's writers do the same: the base is only taken once they
	// have counted every bootstrap frame, or the window would open with
	// frames of the bootstrap still to be counted into it.
	var base ServerStats
	var statsErr error
	if err := waitFor("root bootstrap flush", func() bool {
		base, statsErr = ctl.Stats()
		return statsErr != nil || base.FramesWritten == base.Deliveries
	}); err != nil {
		return Result{}, err
	}
	if statsErr != nil {
		return Result{}, statsErr
	}

	hist.Reset()
	e2e.Reset()
	measuring.Store(true)
	var wall time.Duration
	want, last := bootFrames, base
	for k := 1; k <= cfg.Cycles; k++ {
		start := time.Now()
		cycleStart.Store(start.UnixNano())
		// The daemon half measures the cycle's fan-out wall time itself
		// (publish start → last frame handed to the kernel) and returns
		// it, so driver-side scheduling — thousands of decoding sessions
		// on a small host — never inflates the engine measurement.
		dur, err := ctl.Cycle()
		if err != nil {
			return Result{}, err
		}
		// The publish has returned, so this cycle's message counts are
		// final; deliveries race on while we compute the expectation.
		cur, err := ctl.Stats()
		if err != nil {
			return Result{}, err
		}
		inc, err := expect(last, cur)
		if err != nil {
			return Result{}, err
		}
		want += inc
		last = cur
		if err := waitFor(fmt.Sprintf("cycle %d deliveries", k), func() bool {
			return total.Load() >= want
		}); err != nil {
			return Result{}, err
		}
		if got := total.Load(); got != want {
			return Result{}, fmt.Errorf("loadtest: cycle %d delivered %d cumulative frames, want exactly %d", k, got, want)
		}
		if cfg.Relays > 0 {
			// With a relay tier the root's flush-complete only covers the
			// first hop (one frame per relay); the fan-out under test ends
			// when the tier has delivered to every session, so the cycle
			// wall is publish start → last frame received downstream.
			dur = time.Since(start)
		}
		wall += dur
		cfg.logf("loadtest: cycle %d/%d: %d frames in %s", k, cfg.Cycles, inc, dur)
	}
	measuring.Store(false)
	end, err := ctl.Stats()
	if err != nil {
		return Result{}, err
	}
	// Flush-complete must agree with the delivery accounting exactly:
	// every delivered frame was handed to the kernel, nothing more.
	if cfg.Relays == 0 {
		if wrote := end.FramesWritten - base.FramesWritten; wrote != want-bootFrames {
			return Result{}, fmt.Errorf("loadtest: wrote %d frames in the measured window, want exactly %d",
				wrote, want-bootFrames)
		}
	} else {
		// Two-tier accounting. The root writes each published message's
		// frame exactly once per relay (each relay is one feed session
		// subscribed to every channel) — the write reduction the tier
		// exists for. Each relay ingests exactly those frames, and the
		// tier as a whole re-fans them into exactly the session volume a
		// direct deployment would have written.
		feedFrames := (end.messages() - base.messages()) * uint64(cfg.Relays)
		if wrote := end.FramesWritten - base.FramesWritten; wrote != feedFrames {
			return Result{}, fmt.Errorf("loadtest: root wrote %d frames in the measured window, want exactly %d (messages × relays)",
				wrote, feedFrames)
		}
		if err := waitFor("relay flush", relaysDrained); err != nil {
			return Result{}, err
		}
		if got := relayIngested() - relayIngestBase; got != feedFrames {
			return Result{}, fmt.Errorf("loadtest: relay tier ingested %d frames in the measured window, want exactly %d",
				got, feedFrames)
		}
		if got := relayWritten() - relayWrittenBase; got != want-bootFrames {
			return Result{}, fmt.Errorf("loadtest: relay tier wrote %d frames in the measured window, want exactly %d",
				got, want-bootFrames)
		}
	}

	frames := want - bootFrames
	res := Result{
		Sessions:       cfg.Sessions,
		Channels:       cfg.Channels,
		Cycles:         cfg.Cycles,
		Relays:         cfg.Relays,
		FramesPerCycle: frames / uint64(cfg.Cycles),
		Frames:         frames,
		Messages:       end.messages() - base.messages(),
		Wall:           wall,
		FramesPerSec:   float64(frames) / wall.Seconds(),
		P50:            hist.Percentile(0.50),
		P99:            hist.Percentile(0.99),
		LatencyP50:     e2e.Percentile(0.50),
		LatencyP90:     e2e.Percentile(0.90),
		LatencyP99:     e2e.Percentile(0.99),
		LatencyMax:     e2e.Max(),
		LatencySamples: e2e.count.Load(),
		Encodes:        end.Encodes - base.Encodes,
		FanoutBytes:    end.Bytes - base.Bytes,
		Deliveries:     end.Deliveries - base.Deliveries,
		Flushes:        end.Flushes - base.Flushes,
	}
	return res, nil
}
