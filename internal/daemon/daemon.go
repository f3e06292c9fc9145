// Package daemon turns the subscription system into a network service: a
// TCP listener speaking the wire protocol, bridging connected clients to
// the in-process multicast network. Each connected client registers
// subscriptions, is told its channel assignment after every planning
// cycle, and receives the merged answers of its channel as TypeAnswer
// frames — the deployable version of the BADD dissemination loop (§2).
//
// The delivery layer is built to degrade gracefully under slow, dead and
// reconnecting clients: per-session bounded multicast queues with a
// slow-consumer policy (default: evict), read-idle and per-frame write
// deadlines, a supersede rule so a reconnecting client id replaces its
// half-open predecessor, and context-based graceful shutdown that drains
// forwarders before closing connections.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/trace"
	"qsub/internal/wire"
)

// Default session-hardening parameters; see the matching Daemon fields.
const (
	DefaultWriteTimeout     = 10 * time.Second
	DefaultSubscriberBuffer = 256
)

// maxFanoutBatch caps how many queued frames a forwarder coalesces into
// one vectored flush. 256 frames stays well under typical iovec limits
// (IOV_MAX is 1024; net.Buffers chunks internally anyway) while
// amortizing the per-flush deadline and syscall cost ~256x for deep
// queues.
const maxFanoutBatch = 256

// Daemon is the network front end of a subscription server. Plans are
// cached across cycles and recomputed only when subscriptions changed or
// the drift monitor reports that database churn invalidated the cost
// estimates (§11 dynamic scenario).
type Daemon struct {
	srv     *server.Server
	net     *multicast.Network
	metrics *metrics.Catalog

	mu       sync.Mutex
	sessions map[int]*session
	closed   bool

	// relayMu guards the downstream-client routing table: clients that
	// subscribed through a relay session, keyed by their global id (see
	// relay.go).
	relayMu      sync.Mutex
	relayClients map[int]*relayClient

	planMu       sync.Mutex
	cycle        *server.Cycle
	dirty        bool
	refreshForce bool // a client requested full answers on the next cycle
	estimate     float64
	drift        server.DriftMonitor
	replans      int

	wg sync.WaitGroup
	// Logf receives diagnostic messages; nil silences them.
	Logf func(format string, args ...any)
	// Trace, when set, records control-plane events (plans, publishes,
	// subscription changes, drift) as JSON lines.
	Trace *trace.Recorder

	// ReadIdleTimeout bounds how long a session may go without sending a
	// frame before it is dropped (half-open connection reaping). Zero
	// disables the idle check. Set before Serve.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each frame write to a session; a write that
	// cannot complete in time fails and the session is dropped. Zero
	// disables write deadlines. Set before Serve.
	WriteTimeout time.Duration
	// SubscriberBuffer is the per-session multicast delivery queue
	// depth. Set before Serve.
	SubscriberBuffer int
	// SlowPolicy decides what a publish does when a session's delivery
	// queue is full (default multicast.Evict: the session is dropped and
	// counted, and the publish cycle never blocks). Set before Serve.
	SlowPolicy multicast.Policy
	// PerSessionEncode disables the encode-once fabric and restores the
	// pre-fabric delivery path: every forwarder re-marshals each message
	// itself and writes it as its own frame, so a cycle at N subscribers
	// costs N encodes and N frame-sized writes. Kept as the benchmark
	// ablation/oracle for the shared-frame fast path; both paths put
	// byte-identical frames on the wire. Set before the first cycle.
	PerSessionEncode bool
	// Now supplies publish timestamps and staleness clocks in UnixNano;
	// nil uses the wall clock. Tests inject a fixed clock so published
	// byte streams stay deterministic. Set before the first cycle.
	Now func() int64
	// DisableTimestamps turns off publish-timestamp stamping entirely,
	// shrinking answer frames by 9 bytes and reverting them to the
	// pre-timestamp wire format. Set before the first cycle.
	DisableTimestamps bool

	encOnce sync.Once // installs the multicast encoder on the first cycle

	// ledger is the cycle pipeline ledger (see ledger.go); encodeNanos
	// accumulates encode-once marshalling time for the current cycle's
	// encode stage.
	ledger      cycleLedger
	encodeNanos atomic.Int64
}

// clockNano reads the daemon's clock (see Now).
func (d *Daemon) clockNano() int64 {
	if d.Now != nil {
		return d.Now()
	}
	return time.Now().UnixNano()
}

// session is one connected TCP client.
type session struct {
	clientID int
	conn     net.Conn

	writeMu      sync.Mutex // serializes frames onto conn
	writeTimeout time.Duration

	mu      sync.Mutex
	sub     *multicast.Subscription // current channel attachment
	fwdDone chan struct{}           // closed when the current forwarder exits
	queries map[query.ID]struct{}   // query ids this session registered
	relay   bool                    // upgraded into a relay feed (see relay.go)
	feeds   []*relayFeed            // relay-mode channel attachments
	gone    bool                    // dropped or superseded; bind must not attach

	// Lag bookkeeping, updated lock-free by the forwarder after each
	// successful write: the newest delivered sequence number and when
	// it went out. The per-cycle watermark pass (see lag.go) reads
	// them to compute seq lag and staleness per session.
	lastSeq       atomic.Uint64
	lastWriteNano atomic.Int64
}

// noteWrite records a successful frame write for lag accounting. track
// is the sequence watermark the write advances: the session's own for a
// direct client, the feed's for one of a relay session's channel feeds.
func (s *session) noteWrite(track *atomic.Uint64, nowNano int64, seq uint64) {
	track.Store(seq)
	s.lastWriteNano.Store(nowNano)
}

// boundTo reports whether the session's current attachment is already
// on the channel. (An evicted or failed attachment is not rebound: its
// forwarder closes the connection and the session is torn down.)
func (s *session) boundTo(channel int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sub != nil && s.sub.Channel() == channel
}

// trackQuery records a successfully registered query id. It reports
// false when the session is already being torn down, in which case the
// caller must release the registration itself.
func (s *session) trackQuery(id query.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return false
	}
	if s.queries == nil {
		s.queries = make(map[query.ID]struct{})
	}
	s.queries[id] = struct{}{}
	return true
}

func (s *session) untrackQuery(id query.ID) {
	s.mu.Lock()
	delete(s.queries, id)
	s.mu.Unlock()
}

// takeTeardown flips the session into the gone state and hands the
// caller everything that needs releasing: the current subscription, the
// forwarder join channel, the relay channel feeds and the tracked query
// ids.
func (s *session) takeTeardown() (sub *multicast.Subscription, fwdDone chan struct{}, feeds []*relayFeed, ids []query.ID) {
	s.mu.Lock()
	s.gone = true
	sub, s.sub = s.sub, nil
	fwdDone, s.fwdDone = s.fwdDone, nil
	feeds, s.feeds = s.feeds, nil
	ids = make([]query.ID, 0, len(s.queries))
	for id := range s.queries {
		ids = append(ids, id)
	}
	s.queries = nil
	s.mu.Unlock()
	return sub, fwdDone, feeds, ids
}

// releaseTeardown cancels and joins everything takeTeardown returned
// that is attached to the delivery layer: subscriptions are canceled,
// the connection is closed (unblocking forwarders stuck in writes), and
// every forwarder is joined.
func releaseTeardown(conn net.Conn, sub *multicast.Subscription, fwdDone chan struct{}, feeds []*relayFeed) {
	if sub != nil {
		sub.Cancel()
	}
	for _, f := range feeds {
		f.sub.Cancel()
	}
	conn.Close()
	if fwdDone != nil {
		<-fwdDone
	}
	for _, f := range feeds {
		<-f.done
	}
}

// New creates a daemon over a relation with the given channel count and
// server configuration.
func New(rel *relation.Relation, channels int, cfg server.Config) (*Daemon, error) {
	mnet, err := multicast.NewNetwork(channels)
	if err != nil {
		return nil, err
	}
	// The daemon is always instrumented: a Catalog is cheap (a few
	// hundred atomics) and the admin endpoint needs one to serve.
	// Callers may pass their own via cfg.Metrics to share a registry.
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewCatalog(channels)
	}
	srv, err := server.New(rel, mnet, cfg)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		srv:          srv,
		net:          mnet,
		metrics:      cfg.Metrics,
		sessions:     make(map[int]*session),
		relayClients: make(map[int]*relayClient),

		WriteTimeout:     DefaultWriteTimeout,
		SubscriberBuffer: DefaultSubscriberBuffer,
		SlowPolicy:       multicast.Evict,
	}, nil
}

// Metrics returns the daemon's instrument catalog (never nil).
func (d *Daemon) Metrics() *metrics.Catalog { return d.metrics }

// Server exposes the underlying subscription server (for data loading and
// direct planning in tests).
func (d *Daemon) Server() *server.Server { return d.srv }

// Network exposes the daemon's multicast network (for delivery-layer
// stats in tests and status reporting).
func (d *Daemon) Network() *multicast.Network { return d.net }

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Serve accepts connections until ctx is canceled, the listener fails,
// or Close is called. Cancellation shuts down gracefully: the listener
// closes, every session's forwarder is canceled and drained, each
// session receives a Bye frame, and connections are closed.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close() // unblock Accept
		case <-stop:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				d.Shutdown()
				return nil
			}
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := d.handle(conn); err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
				d.logf("daemon: session error: %v", err)
			}
		}()
	}
}

// readFrame reads one frame under the daemon's idle deadline, counting
// expiries.
func (d *Daemon) readFrame(conn net.Conn) (uint8, []byte, error) {
	if d.ReadIdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.ReadIdleTimeout))
	}
	ft, payload, err := wire.ReadFrame(conn)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			d.metrics.SessionsExpired.Inc()
			d.metrics.SessionsExpiredIdle.Inc()
			return 0, nil, fmt.Errorf("daemon: session idle past %s: %w", d.ReadIdleTimeout, err)
		}
	}
	return ft, payload, err
}

// sessionSendBuffer is the socket send-buffer size requested for each
// session connection. The fan-out path writes bursts of small frames;
// each lands in the send queue as an skb whose true size the kernel
// accounts at 1-2 KiB regardless of payload, and the skbs are only
// freed on ACK — which a quiet receiver may delay tens of
// milliseconds. The Linux default budget (tcp_wmem[1] = 16 KiB) fits
// only a handful of such bursts, so a publish cycle's flush ends up
// blocked on ACK clocking instead of CPU. A 256 KiB budget absorbs a
// full cycle's burst per session; the kernel allocates it only as used.
const sessionSendBuffer = 256 << 10

// handle runs one client session: Hello, then subscription management
// until Bye or disconnect.
func (d *Daemon) handle(conn net.Conn) error {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(sessionSendBuffer) // best effort
	}
	ft, payload, err := d.readFrame(conn)
	if err != nil {
		return err
	}
	if ft != wire.TypeHello {
		return fmt.Errorf("daemon: expected Hello, got frame type %d", ft)
	}
	hello, err := wire.UnmarshalHello(payload)
	if err != nil {
		return err
	}
	sess := &session{clientID: hello.ClientID, conn: conn, writeTimeout: d.WriteTimeout}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("daemon: closed")
	}
	old := d.sessions[hello.ClientID]
	d.sessions[hello.ClientID] = sess
	d.metrics.SessionsConnected.Set(int64(len(d.sessions)))
	d.mu.Unlock()
	if old != nil {
		// Supersede rule: a reconnecting client id replaces its
		// (typically half-open) predecessor instead of being rejected.
		d.supersede(old)
	}
	defer d.dropSession(sess)

	for {
		ft, payload, err := d.readFrame(conn)
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeSubscribe:
			sub, err := wire.UnmarshalSubscribe(payload)
			if err != nil {
				return err
			}
			if err := d.srv.Subscribe(sess.clientID, sub.Query); err != nil {
				sess.sendError(err.Error())
			} else if !sess.trackQuery(sub.Query.ID) {
				// Torn down between registration and tracking (a
				// supersede racing a late frame): release immediately.
				d.srv.Unsubscribe(sess.clientID, sub.Query.ID)
				return errors.New("daemon: session superseded")
			} else {
				d.markDirty()
				d.record(trace.Event{Kind: trace.KindSubscribe,
					ClientID: sess.clientID, QueryID: uint64(sub.Query.ID)})
			}
		case wire.TypeUnsubscribe:
			unsub, err := wire.UnmarshalUnsubscribe(payload)
			if err != nil {
				return err
			}
			if !d.srv.Unsubscribe(sess.clientID, unsub.ID) {
				sess.sendError(fmt.Sprintf("no subscription with id %d", unsub.ID))
			} else {
				sess.untrackQuery(unsub.ID)
				d.markDirty()
				d.record(trace.Event{Kind: trace.KindUnsubscribe,
					ClientID: sess.clientID, QueryID: uint64(unsub.ID)})
			}
		case wire.TypeRelaySub:
			// The session upgrades into a relay feed: it stops speaking
			// the query protocol and instead receives every answer frame
			// of its channel set for downstream re-fan-out (relay.go).
			rs, err := wire.UnmarshalRelaySub(payload)
			if err != nil {
				return err
			}
			return d.handleRelay(sess, rs)
		case wire.TypeReady:
			// Ready is a synchronization hint: clients send it after
			// their subscriptions so the operator (or test) knows a
			// cycle can run. The daemon itself plans on RunCycle.
		case wire.TypeRefresh:
			// Gap recovery: the client missed messages and wants full
			// answers instead of a delta on the next cycle.
			d.planMu.Lock()
			d.refreshForce = true
			d.planMu.Unlock()
			d.logf("daemon: client %d requested a full refresh", sess.clientID)
		case wire.TypeBye:
			return nil
		default:
			return fmt.Errorf("daemon: unexpected frame type %d", ft)
		}
	}
}

// supersede tears down a predecessor session synchronously so its
// replacement starts from a clean registry: cancel its channel
// attachment, close its connection (unblocking any in-flight write),
// join its forwarder and release its queries.
func (d *Daemon) supersede(old *session) {
	sub, fwdDone, feeds, ids := old.takeTeardown()
	releaseTeardown(old.conn, sub, fwdDone, feeds)
	for _, id := range ids {
		d.srv.Unsubscribe(old.clientID, id)
	}
	if len(ids) > 0 {
		d.markDirty()
	}
	d.releaseRelayClients(old)
	d.metrics.SessionsSuperseded.Inc()
	d.logf("daemon: client %d superseded by a new connection", old.clientID)
}

// dropSession removes a finished session and releases its queries so the
// next cycle stops addressing a gone client. Query ids are tracked on
// the session at Subscribe/Unsubscribe time, so teardown needs no
// throwaway plan and cannot leak subscriptions when planning would fail.
func (d *Daemon) dropSession(sess *session) {
	d.mu.Lock()
	if d.sessions[sess.clientID] == sess {
		delete(d.sessions, sess.clientID)
	}
	d.metrics.SessionsConnected.Set(int64(len(d.sessions)))
	d.mu.Unlock()
	sub, fwdDone, feeds, ids := sess.takeTeardown()
	releaseTeardown(sess.conn, sub, fwdDone, feeds)
	for _, id := range ids {
		d.srv.Unsubscribe(sess.clientID, id)
	}
	if len(ids) > 0 {
		d.markDirty()
	}
	d.releaseRelayClients(sess)
}

// record emits one trace event when tracing is enabled.
func (d *Daemon) record(ev trace.Event) {
	if d.Trace != nil {
		d.Trace.Record(ev)
	}
}

// traceSnapshot returns a metrics snapshot for embedding into plan and
// drift trace events, or nil when tracing is off (snapshots are cold
// but not free, so they are taken only when a recorder will see them).
func (d *Daemon) traceSnapshot() *metrics.Snapshot {
	if d.Trace == nil {
		return nil
	}
	return d.metrics.Snapshot()
}

// markDirty forces a re-plan on the next cycle.
func (d *Daemon) markDirty() {
	d.planMu.Lock()
	d.dirty = true
	d.planMu.Unlock()
}

// Replans returns how many times the daemon has re-planned.
func (d *Daemon) Replans() int {
	d.planMu.Lock()
	defer d.planMu.Unlock()
	return d.replans
}

// RunCycle publishes the current merged plan (full answers when delta is
// false, per-period deltas when true). The plan is recomputed — and every
// connected client re-informed of its channel assignment — only when
// subscriptions changed since the last cycle or the drift monitor reports
// that the cached plan's size estimates no longer match reality. A
// session the new plan leaves on its channel keeps its subscription and
// forwarder; only a moved or not yet attached one is bound. In delta
// mode, a pending client refresh request (gap recovery) turns this
// cycle's publish into full answers.
func (d *Daemon) RunCycle(delta bool) (server.Report, error) {
	d.ensureEncoder()
	rec := CycleRecord{
		Cycle:         d.ledger.begin(),
		StartUnixNano: d.clockNano(),
		Mode:          "cached",
		Sharded:       d.srv.ShardingEnabled(),
		Delta:         delta,
	}
	d.planMu.Lock()
	drifted := d.drift.ShouldReplan()
	needPlan := d.cycle == nil || d.dirty || drifted
	cy := d.cycle
	forceFull := d.refreshForce
	d.refreshForce = false
	d.planMu.Unlock()

	if needPlan {
		var fresh *server.Cycle
		var err error
		planStart := time.Now()
		if cy != nil && !drifted {
			// Subscription churn with still-valid size estimates: solve
			// again only around the changed queries (§11 incremental
			// replan). Only drift — stale estimates — escalates to a
			// full re-solve.
			fresh, err = d.srv.Replan(cy)
		} else {
			fresh, err = d.srv.Plan()
		}
		rec.PlanSeconds = time.Since(planStart).Seconds()
		if err != nil {
			return server.Report{}, err
		}
		if fresh == cy {
			rec.Mode = "unchanged" // the changes cancelled out: Replan kept the cycle
		} else {
			rec.Mode = fresh.Info.Mode
			rec.ShardsSolved, rec.ShardsReused = fresh.Info.ShardsSolved, fresh.Info.ShardsReused
			rec.BudgetExhausted = fresh.Info.BudgetExhausted
		}
		cy = fresh
		d.planMu.Lock()
		d.cycle = fresh
		d.dirty = false
		d.replans++
		d.drift.Reset()
		d.estimate = d.srv.EstimatedTransmitBytes(fresh)
		d.planMu.Unlock()
		sets := 0
		for _, plan := range fresh.ChannelPlans {
			sets += len(plan)
		}
		d.record(trace.Event{Kind: trace.KindPlan,
			Queries: len(fresh.Queries), MergedSets: sets,
			Channels:      d.net.Channels(),
			EstimatedCost: fresh.EstimatedCost, InitialCost: fresh.InitialCost,
			Metrics: d.traceSnapshot()})

		d.mu.Lock()
		sessions := make([]*session, 0, len(d.sessions))
		for _, s := range d.sessions {
			sessions = append(sessions, s)
		}
		d.mu.Unlock()
		for _, sess := range sessions {
			ch, ok := cy.ClientChannel[sess.clientID]
			if !ok {
				continue // no subscriptions this cycle
			}
			if !sess.boundTo(ch) {
				if err := d.bind(sess, ch); err != nil {
					d.logf("daemon: bind client %d: %v", sess.clientID, err)
					continue
				}
				rec.SessionsMoved++
			}
			// Sent on every replan even to a session that stays put: the
			// plan's costs changed.
			sess.send(wire.TypeAssigned, wire.MarshalAssigned(wire.Assigned{
				Channel:       ch,
				EstimatedCost: cy.EstimatedCost,
				InitialCost:   cy.InitialCost,
			}))
		}
		d.metrics.SessionsMoved.Add(uint64(rec.SessionsMoved))
		// Clients subscribed through a relay have no multicast binding
		// here — the relay's channel feeds carry their frames — but they
		// still need their channel assignment. It travels wrapped on the
		// owning relay session, ahead of this cycle's answer frames on
		// the same TCP stream, so the relay rebinds the client before
		// any frame of the new assignment arrives.
		for _, rt := range d.relayRoutes() {
			ch, ok := cy.ClientChannel[rt.id]
			if !ok {
				continue
			}
			rt.owner.send(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{
				ClientID: rt.id,
				Inner:    wire.TypeAssigned,
				Payload: wire.MarshalAssigned(wire.Assigned{
					Channel:       ch,
					EstimatedCost: cy.EstimatedCost,
					InitialCost:   cy.InitialCost,
				}),
			}))
		}
	}

	// Gap recovery turns a delta cycle into full answers once, so
	// reconnected or message-lossy clients rebuild complete state.
	rec.Delta = delta && !forceFull
	encBefore := d.encodeNanos.Load()
	pubStart := time.Now()
	var rep server.Report
	var err error
	if rec.Delta {
		rep, err = d.srv.PublishDelta(cy)
	} else {
		rep, err = d.srv.Publish(cy)
	}
	pubSeconds := time.Since(pubStart).Seconds()
	// The encode-once hook runs inside Publish and self-times; the
	// fanout stage is the publish remainder (enqueue + shared-frame
	// handoff), never negative even if the clocks disagree slightly.
	rec.EncodeSeconds = float64(d.encodeNanos.Load()-encBefore) / 1e9
	rec.FanoutSeconds = pubSeconds - rec.EncodeSeconds
	if rec.FanoutSeconds < 0 {
		rec.FanoutSeconds = 0
	}
	if err != nil {
		return rep, err
	}
	rec.Messages, rec.Tuples, rec.PayloadBytes = rep.Messages, rep.Tuples, rep.PayloadBytes

	switch {
	case delta && forceFull:
		d.record(trace.Event{Kind: trace.KindPublish,
			Messages: rep.Messages, Tuples: rep.Tuples, PayloadBytes: rep.PayloadBytes})
	case delta:
		d.record(trace.Event{Kind: trace.KindPublish, Delta: true,
			Messages: rep.Messages, Tuples: rep.Tuples, PayloadBytes: rep.PayloadBytes})
	default:
		// Full publishes feed the drift monitor; delta payloads vary
		// by nature and would trigger spurious re-plans.
		d.planMu.Lock()
		drift := d.drift.Observe(d.estimate, float64(rep.PayloadBytes))
		replan := d.drift.ShouldReplan()
		d.planMu.Unlock()
		d.record(trace.Event{Kind: trace.KindPublish,
			Messages: rep.Messages, Tuples: rep.Tuples, PayloadBytes: rep.PayloadBytes})
		d.record(trace.Event{Kind: trace.KindDrift, Drift: drift, Replan: replan,
			Metrics: d.traceSnapshot()})
	}
	d.finishCycle(rec, d.metrics.FanoutDeliveries.Load())
	d.updateLagWatermarks()
	return rep, nil
}

// ensureEncoder installs the encode-once hook on the multicast network
// before the first publish cycle (unless the per-session ablation is
// selected): each published message is marshalled into a complete
// TypeAnswer frame exactly once, and every forwarder writes that shared
// immutable slice directly.
func (d *Daemon) ensureEncoder() {
	d.encOnce.Do(func() {
		if !d.DisableTimestamps {
			// Stamp publishes at seq assignment so every frame carries
			// its publish time for end-to-end latency accounting. Both
			// fan-out paths stamp: the ablation must stay byte-comparable.
			d.net.SetClock(d.clockNano)
		}
		if d.PerSessionEncode {
			return
		}
		d.net.SetEncoder(func(m multicast.Message) []byte {
			t0 := time.Now()
			buf := wire.AppendMessageFrame(nil, m)
			d.encodeNanos.Add(time.Since(t0).Nanoseconds())
			return buf
		})
	})
}

// bind attaches the session to the channel, replacing any previous
// attachment, and starts the forwarder goroutine that turns multicast
// messages into TypeAnswer frames. The old forwarder is canceled and
// joined before the new subscription is installed, so a rebound session
// can never interleave frames from two channels.
func (d *Daemon) bind(sess *session, channel int) error {
	sess.mu.Lock()
	old, oldDone := sess.sub, sess.fwdDone
	sess.sub, sess.fwdDone = nil, nil
	sess.mu.Unlock()
	if old != nil {
		old.Cancel()
	}
	if oldDone != nil {
		<-oldDone
	}

	// The shared-frame path consumes through a batch ring subscription
	// (one queue swap per forwarder wakeup instead of one channel
	// receive per frame); the per-session-encode ablation keeps the
	// pre-fabric channel subscription so it measures the old delivery
	// stack end to end.
	var sub *multicast.Subscription
	var err error
	if d.PerSessionEncode {
		sub, err = d.net.SubscribeWith(channel, d.SubscriberBuffer, d.SlowPolicy)
	} else {
		sub, err = d.net.SubscribeBatch(channel, d.SubscriberBuffer, d.SlowPolicy)
	}
	if err != nil {
		return err
	}
	done := make(chan struct{})
	sess.mu.Lock()
	if sess.gone {
		// The session was dropped while we were joining; don't leak a
		// subscription nobody will ever cancel.
		sess.mu.Unlock()
		sub.Cancel()
		return errors.New("daemon: session gone")
	}
	sess.sub, sess.fwdDone = sub, done
	sess.mu.Unlock()

	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(done)
		werr := d.forward(sess, sub, &sess.lastSeq)
		if werr != nil {
			sub.Cancel()
		}
		// An eviction can land while the forwarder is blocked in a
		// write, so the evicted check must cover both exit paths.
		switch {
		case sub.Evicted():
			d.metrics.SessionsEvicted.Inc()
			d.logf("daemon: client %d evicted as a slow consumer on channel %d", sess.clientID, sub.Channel())
			sess.sendError(fmt.Sprintf("evicted: delivery queue full on channel %d", sub.Channel()))
			// The session cannot make progress without its answer
			// stream; closing the conn lets the read loop tear the
			// whole session down.
			sess.conn.Close()
		case werr != nil:
			var ne net.Error
			if errors.As(werr, &ne) && ne.Timeout() {
				d.metrics.SessionsExpired.Inc()
				d.metrics.SessionsExpiredWrite.Inc()
			}
			sess.conn.Close()
		}
	}()
	return nil
}

// forward pumps the subscription's multicast messages onto the session
// socket until the subscription ends (cancel, eviction, shutdown) or a
// write fails. It returns the write error, if any; the caller owns
// cancellation and teardown.
func (d *Daemon) forward(sess *session, sub *multicast.Subscription, track *atomic.Uint64) error {
	if d.PerSessionEncode {
		return d.forwardPerSession(sess, sub, track)
	}
	return d.forwardShared(sess, sub, track)
}

// forwardPerSession is the ablation path: re-marshal every message in
// this forwarder and write it as its own frame. One encode buffer per
// forwarder — send finishes the write before returning, so the buffer is
// reusable and steady state allocates nothing (but costs one encode and
// one frame-sized write per subscriber per message).
func (d *Daemon) forwardPerSession(sess *session, sub *multicast.Subscription, track *atomic.Uint64) error {
	var buf []byte
	for msg := range sub.C {
		buf = wire.MarshalMessageAppend(buf[:0], msg)
		d.metrics.FanoutEncodes.Inc()
		d.metrics.FanoutBytes.Add(uint64(len(buf)) + wire.HeaderSize)
		if err := sess.send(wire.TypeAnswer, buf); err != nil {
			return err
		}
		d.metrics.FanoutFramesWritten.Inc()
		d.metrics.FanoutFlushes.Inc()
		sess.noteWrite(track, d.clockNano(), msg.Seq)
	}
	return nil
}

// forwardShared is the encode-once fast path: each delivered message
// carries the shared immutable frame the publish cycle encoded, and the
// forwarder writes that slice directly — no decode, no re-encode. The
// subscription is a batch ring (see multicast.SubscribeBatch), so one
// NextBatch call swaps out everything queued since the last wakeup;
// frames are then coalesced (up to maxFanoutBatch) into vectored
// flushes, so a deep queue costs one syscall per batch instead of two
// per frame. The batch only ever holds aliases; frame bytes are never
// copied or mutated here (net.Buffers consumes the slice headers, not
// the shared arrays they point to).
func (d *Daemon) forwardShared(sess *session, sub *multicast.Subscription, track *atomic.Uint64) error {
	batch := make(net.Buffers, 0, maxFanoutBatch)
	var fbuf []byte // frames for messages published before the encoder was installed
	for {
		msgs, ok := sub.NextBatch()
		for len(msgs) > 0 {
			n := len(msgs)
			if n > maxFanoutBatch {
				n = maxFanoutBatch
			}
			batch, fbuf = batch[:0], fbuf[:0]
			var batchBytes uint64
			shared := 0
			for _, msg := range msgs[:n] {
				frame := msg.Frame
				if frame == nil {
					// Rare pre-encoder publish: frame it locally.
					// Appending at the tail keeps frames already batched
					// valid even when the buffer grows (they stay on the
					// old backing array).
					start := len(fbuf)
					fbuf = wire.AppendMessageFrame(fbuf, msg)
					frame = fbuf[start:]
					d.metrics.FanoutEncodes.Inc()
				} else {
					shared++
				}
				batch = append(batch, frame)
				batchBytes += uint64(len(frame))
			}
			lastSeq := msgs[n-1].Seq
			msgs = msgs[n:]
			d.metrics.FanoutFramesShared.Add(uint64(shared))
			d.metrics.FanoutBytes.Add(batchBytes)
			if err := sess.sendBatch(batch); err != nil {
				return err
			}
			d.metrics.FanoutFramesWritten.Add(uint64(len(batch)))
			d.metrics.FanoutFlushes.Inc()
			sess.noteWrite(track, d.clockNano(), lastSeq)
		}
		if !ok {
			return nil
		}
	}
}

// sendBatch flushes a batch of ready-to-write frames to the session's
// connection under a single write deadline. On TCP connections
// net.Buffers turns the batch into one writev; other conns degrade to
// sequential writes, still under one deadline and one lock acquisition.
func (s *session) sendBatch(bufs net.Buffers) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	_, err := bufs.WriteTo(s.conn)
	return err
}

// send writes one frame to the session's connection under the
// daemon's write deadline.
func (s *session) send(frameType uint8, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	return wire.WriteFrame(s.conn, frameType, payload)
}

func (s *session) sendError(msg string) {
	if err := s.send(wire.TypeError, wire.MarshalError(wire.Error{Msg: msg})); err != nil {
		log.Printf("daemon: sending error frame: %v", err)
	}
}

// Close shuts the daemon down immediately: the multicast network closes
// (ending all forwarders) and every session connection is closed.
func (d *Daemon) Close() { d.shutdown(false) }

// Shutdown shuts the daemon down gracefully: every session's forwarder
// is canceled and joined (draining already-queued answers, bounded by
// the write deadline), each session receives a Bye frame, and only then
// are connections closed. Serve calls it on context cancellation.
func (d *Daemon) Shutdown() { d.shutdown(true) }

func (d *Daemon) shutdown(graceful bool) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	sessions := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.mu.Unlock()
	if graceful {
		for _, s := range sessions {
			s.mu.Lock()
			sub, done, feeds := s.sub, s.fwdDone, s.feeds
			s.sub, s.fwdDone, s.feeds = nil, nil, nil
			s.mu.Unlock()
			if sub != nil {
				sub.Cancel() // forwarder drains buffered answers, then exits
			}
			for _, f := range feeds {
				f.sub.Cancel()
			}
			if done != nil {
				<-done
			}
			for _, f := range feeds {
				<-f.done
			}
			s.send(wire.TypeBye, nil) // best-effort farewell
		}
	}
	d.net.Close()
	for _, s := range sessions {
		s.conn.Close()
	}
	d.wg.Wait()
}

// SaveSubscriptions serializes every current (client, query) subscription
// as wire Subscribe frames prefixed by a Hello frame per client, so a
// daemon can restore its registry after a restart. Attribute predicates
// are client-side only and thus not persisted (as on the wire).
func (d *Daemon) SaveSubscriptions(w io.Writer) error {
	cy, err := d.srv.Plan()
	if err != nil {
		return err
	}
	for i, q := range cy.Queries {
		if err := wire.WriteFrame(w, wire.TypeHello,
			wire.MarshalHello(wire.Hello{ClientID: cy.Owners[i]})); err != nil {
			return err
		}
		payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(w, wire.TypeSubscribe, payload); err != nil {
			return err
		}
	}
	return nil
}

// LoadSubscriptions restores a registry written by SaveSubscriptions. It
// returns the number of subscriptions restored. The plan is marked dirty
// whenever anything was restored — including when an error cuts the
// restore short mid-file — so the next cycle never publishes a plan that
// predates the partial restore.
func (d *Daemon) LoadSubscriptions(r io.Reader) (restored int, err error) {
	defer func() {
		if restored > 0 {
			d.markDirty()
		}
	}()
	clientID := 0
	haveClient := false
	for {
		ft, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return restored, nil
		}
		if err != nil {
			return restored, err
		}
		switch ft {
		case wire.TypeHello:
			h, err := wire.UnmarshalHello(payload)
			if err != nil {
				return restored, err
			}
			clientID = h.ClientID
			haveClient = true
		case wire.TypeSubscribe:
			if !haveClient {
				return restored, fmt.Errorf("daemon: subscribe before hello in subscription file")
			}
			sub, err := wire.UnmarshalSubscribe(payload)
			if err != nil {
				return restored, err
			}
			if err := d.srv.Subscribe(clientID, sub.Query); err != nil {
				return restored, err
			}
			restored++
		default:
			return restored, fmt.Errorf("daemon: unexpected frame type %d in subscription file", ft)
		}
	}
}
