// Package daemon turns the subscription system into a network service: a
// TCP listener speaking the wire protocol, bridging connected clients to
// the in-process multicast network. Each connected client registers
// subscriptions, is told its channel assignment after every planning
// cycle, and receives the merged answers of its channel as TypeAnswer
// frames — the deployable version of the BADD dissemination loop (§2).
//
// The delivery side of every connection — direct client or relay feed —
// is a fanout.Session: one bounded queue and one writer per connection,
// control frames in-band with the answers. It degrades gracefully under
// slow, dead and reconnecting clients: a slow-consumer policy on the
// queue (default: evict), read-idle and per-flush write deadlines, a
// supersede rule so a reconnecting client id replaces its half-open
// predecessor, and context-based graceful shutdown that drains the
// writers before closing connections.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/fanout"
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

// Daemon is the network front end of a subscription server. Plans are
// cached across cycles and recomputed only when subscriptions changed or
// the drift monitor reports that database churn invalidated the cost
// estimates (§11 dynamic scenario).
type Daemon struct {
	srv     *server.Server
	net     *multicast.Network
	metrics *metrics.Catalog

	// hub holds the delivery side of every connection (see
	// internal/fanout).
	hub *fanout.Hub

	// mu guards the client registry: every client id with a registration
	// at this daemon, the session that owns it (its own connection, or
	// the relay feed it is routed through; nil for subscriptions restored
	// from a file) and the query ids it registered. The owner check on
	// every control frame is the supersede rule: a late frame or teardown
	// from a session that no longer owns an id cannot touch its
	// successor's registrations.
	mu      sync.Mutex
	clients map[int]*registration

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
	// Now supplies publish timestamps and staleness clocks in UnixNano;
	// nil uses the wall clock. Tests inject a fixed clock so published
	// byte streams stay deterministic. Set before the first cycle.
	Now func() int64

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

// registration is one registry entry (see Daemon.mu).
type registration struct {
	owner   *fanout.Session
	queries map[query.ID]struct{}
}

// direct reports whether the client is its owner's own connection rather
// than one routed through a relay feed.
func direct(owner *fanout.Session, id int) bool {
	return owner.ClientID == id && !owner.IsFeed()
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
	d := &Daemon{
		srv:     srv,
		net:     mnet,
		metrics: cfg.Metrics,
		clients: make(map[int]*registration),

		WriteTimeout:     DefaultWriteTimeout,
		SubscriberBuffer: DefaultSubscriberBuffer,
		SlowPolicy:       multicast.Evict,
	}
	d.hub = fanout.NewHub(cfg.Metrics, d.clockNano, d.logf)
	// Every published message is stamped at seq assignment, for
	// end-to-end latency accounting, and marshalled into a complete
	// TypeAnswer frame exactly once; each session's writer writes that
	// shared immutable slice directly.
	mnet.SetClock(d.clockNano)
	mnet.SetEncoder(func(m multicast.Message) []byte {
		t0 := time.Now()
		buf := wire.AppendMessageFrame(nil, m)
		d.encodeNanos.Add(time.Since(t0).Nanoseconds())
		return buf
	})
	return d, nil
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
// closes, every session's queue is closed behind a Bye frame and drained
// by its writer, and connections are closed.
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
			if d.hub.Closed() {
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

// handle runs one session: Hello, then control frames until Bye or
// disconnect. A client speaks the query protocol for itself; a session
// that sends RelaySub becomes a relay feed (relay.go) and from then on
// speaks only RelayCtl — its downstream clients' control frames, wrapped
// — and Refresh.
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
	sess, err := d.hub.Open(conn, hello.ClientID, fanout.Limits{
		Buffer: d.SubscriberBuffer, Policy: d.SlowPolicy, WriteTimeout: d.WriteTimeout})
	if err != nil {
		return err
	}
	defer func() {
		sess.Close()
		d.release(sess)
	}()
	d.claim(sess, hello.ClientID)

	for {
		ft, payload, err := d.readFrame(conn)
		if err != nil {
			return err
		}
		feed := sess.IsFeed()
		switch {
		case ft == wire.TypeBye:
			return nil
		case ft == wire.TypeRelaySub && !feed:
			var rs wire.RelaySub
			if rs, err = wire.UnmarshalRelaySub(payload); err == nil {
				err = d.upgradeFeed(sess, rs)
			}
		case ft == wire.TypeRelayCtl && feed:
			// RelayCtl is a privilege: only a feed speaks for other ids,
			// and never for its own.
			var rc wire.RelayCtl
			if rc, err = wire.UnmarshalRelayCtl(payload); err == nil && rc.ClientID == sess.ClientID {
				err = fmt.Errorf("daemon: relay %d wrapped a frame for its own id", sess.ClientID)
			}
			if err == nil {
				err = d.control(sess, rc.ClientID, rc.Inner, rc.Payload)
			}
		case ft == wire.TypeRefresh || !feed && (ft == wire.TypeSubscribe || ft == wire.TypeUnsubscribe || ft == wire.TypeReady):
			err = d.control(sess, sess.ClientID, ft, payload)
		default:
			err = fmt.Errorf("daemon: unexpected frame type %d (relay feed: %v)", ft, feed)
		}
		if err != nil {
			return err
		}
	}
}

// control applies one control frame on behalf of client id: a direct
// session's own frame, the inner frame of a relay's RelayCtl, or (owner
// nil) a line of a subscription file. Frames for an id the sender does
// not own are ignored — its successor's registrations are not the
// sender's to change — except that a direct session learns it was
// superseded and ends.
func (d *Daemon) control(owner *fanout.Session, id int, ft uint8, payload []byte) error {
	switch ft {
	case wire.TypeHello:
		// A relay announces a downstream client. The inner payload
		// carries the same id as the wrapper; the wrapper is
		// authoritative.
		d.claim(owner, id)
	case wire.TypeSubscribe, wire.TypeUnsubscribe:
		return d.changeSubscription(owner, id, ft, payload)
	case wire.TypeReady:
		// Ready is a synchronization hint: clients send it after their
		// subscriptions so the operator (or test) knows a cycle can run.
		// The daemon itself plans on RunCycle.
	case wire.TypeRefresh:
		// Gap recovery: the client (or a relay that lost its upstream
		// stream) missed messages and wants full answers instead of a
		// delta on the next cycle.
		d.planMu.Lock()
		d.refreshForce = true
		d.planMu.Unlock()
		d.logf("daemon: client %d requested a full refresh", id)
	case wire.TypeBye:
		d.release(owner, id)
	default:
		return fmt.Errorf("daemon: unsupported control frame type %d for client %d", ft, id)
	}
	return nil
}

// changeSubscription registers or removes one query of client id. The
// owner check, the server's registry and the client's entry change in one
// critical section, so a supersede can never land between them.
func (d *Daemon) changeSubscription(owner *fanout.Session, id int, ft uint8, payload []byte) error {
	var q query.Query
	var qid query.ID
	kind := trace.KindSubscribe
	if ft == wire.TypeSubscribe {
		sub, err := wire.UnmarshalSubscribe(payload)
		if err != nil {
			return err
		}
		q, qid = sub.Query, sub.Query.ID
	} else {
		unsub, err := wire.UnmarshalUnsubscribe(payload)
		if err != nil {
			return err
		}
		qid, kind = unsub.ID, trace.KindUnsubscribe
	}
	d.mu.Lock()
	c := d.clients[id]
	if c == nil && ft == wire.TypeSubscribe {
		// Implicit claim: a restored subscription, or a relay that
		// skipped the Hello.
		c = &registration{owner: owner, queries: make(map[query.ID]struct{})}
		d.clients[id] = c
	}
	owned := c != nil && c.owner == owner
	var err error
	switch {
	case !owned:
	case ft == wire.TypeSubscribe:
		if err = d.srv.Subscribe(id, q); err == nil {
			c.queries[qid] = struct{}{}
		}
	case d.srv.Unsubscribe(id, qid):
		delete(c.queries, qid)
	default:
		err = fmt.Errorf("no subscription with id %d", qid)
	}
	d.mu.Unlock()
	switch {
	case !owned:
		return d.disowned(owner, id)
	case err != nil && owner == nil:
		return err
	case err != nil:
		d.reply(owner, id, wire.TypeError, wire.MarshalError(wire.Error{Msg: err.Error()}))
	default:
		d.markDirty()
		d.record(trace.Event{Kind: kind, ClientID: id, QueryID: uint64(qid)})
	}
	return nil
}

// disowned is the outcome of a frame for a client id its sender does not
// own: nothing for a relay (the client moved on), the end of the session
// for a direct client (its id was taken over), an error for a
// subscription file (its client is connected and speaks for itself).
func (d *Daemon) disowned(owner *fanout.Session, id int) error {
	switch {
	case owner == nil:
		return fmt.Errorf("daemon: client %d has a live session", id)
	case direct(owner, id):
		return errors.New("daemon: session superseded")
	}
	return nil
}

// reply queues a frame for client id on its owner's session, in-band
// with the answers around it: as is for a direct client, wrapped in
// RelayCtl for one behind a relay.
func (d *Daemon) reply(owner *fanout.Session, id int, ft uint8, payload []byte) {
	if !direct(owner, id) {
		ft, payload = wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{ClientID: id, Inner: ft, Payload: payload})
	}
	owner.Push(ft, payload)
}

// claim registers client id under owner, starting from a clean slate:
// whatever the id had registered before — under a half-open predecessor
// connection, another relay, or a restored subscription file — is
// released first, and a predecessor connection of that id is torn down
// (the supersede rule: a reconnecting client id replaces its
// predecessor instead of being rejected).
func (d *Daemon) claim(owner *fanout.Session, id int) {
	d.mu.Lock()
	old := d.clients[id]
	released := d.unregister(id, old)
	d.clients[id] = &registration{owner: owner, queries: make(map[query.ID]struct{})}
	d.mu.Unlock()
	if released > 0 {
		d.markDirty()
	}
	if old != nil && old.owner != nil && old.owner != owner && old.owner.ClientID == id {
		old.owner.Close()
		d.release(old.owner)
		d.metrics.SessionsSuperseded.Inc()
		d.logf("daemon: client %d superseded by a new connection", id)
	}
}

// unregister unsubscribes every query of one registry entry and reports
// how many there were. Callers hold d.mu.
func (d *Daemon) unregister(id int, c *registration) int {
	if c == nil {
		return 0
	}
	for qid := range c.queries {
		d.srv.Unsubscribe(id, qid)
	}
	return len(c.queries)
}

// release drops the registrations owner holds — for the named client ids
// (a wrapped Bye), or for every client it owns (the session ended) — so
// the next cycle stops addressing gone clients. Ids owner does not own
// are left alone. A relay re-registers its clients wholesale after it
// reconnects, so a relay blip costs one unsubscribe/resubscribe churn and
// one replan — the same contract direct sessions have.
func (d *Daemon) release(owner *fanout.Session, ids ...int) {
	d.mu.Lock()
	if len(ids) == 0 {
		if owner.IsFeed() {
			for id, c := range d.clients {
				if c.owner == owner {
					ids = append(ids, id)
				}
			}
		} else {
			ids = []int{owner.ClientID}
		}
	}
	released := 0
	for _, id := range ids {
		if c := d.clients[id]; c != nil && c.owner == owner {
			released += d.unregister(id, c)
			delete(d.clients, id)
		}
	}
	d.mu.Unlock()
	if released > 0 {
		d.markDirty()
	}
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
// session the new plan leaves on its channel keeps its attachment; only a
// moved or not yet attached one is bound. In delta
// mode, a pending client refresh request (gap recovery) turns this
// cycle's publish into full answers.
func (d *Daemon) RunCycle(delta bool) (server.Report, error) {
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

		// Every registered client is told its channel, in-band on the
		// session that owns it: after whatever the session still has
		// queued from the old plan and ahead of this cycle's answer
		// frames, so a client — or the relay that rebinds it on seeing
		// the wrapped frame — switches channel exactly between the two. A
		// direct client's own queue moves here; a relayed client has no
		// binding at this tier, its relay's feed carries its frames.
		d.mu.Lock()
		owners := make(map[int]*fanout.Session, len(d.clients))
		for id, c := range d.clients {
			if c.owner != nil {
				owners[id] = c.owner
			}
		}
		d.mu.Unlock()
		for id, owner := range owners {
			ch, ok := cy.ClientChannel[id]
			if !ok {
				continue // no subscriptions this cycle
			}
			if direct(owner, id) {
				moved, err := owner.Bind(d.net, ch)
				if err != nil {
					d.logf("daemon: bind client %d: %v", id, err)
					continue
				}
				if moved {
					rec.SessionsMoved++
				}
			}
			// Sent on every replan even to a session that stays put: the
			// plan's costs changed.
			d.reply(owner, id, wire.TypeAssigned, wire.MarshalAssigned(wire.Assigned{
				Channel:       ch,
				EstimatedCost: cy.EstimatedCost,
				InitialCost:   cy.InitialCost,
			}))
		}
		d.metrics.SessionsMoved.Add(uint64(rec.SessionsMoved))
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
	d.hub.UpdateLagWatermarks()
	return rep, nil
}

// Close shuts the daemon down immediately: every session's queue and
// connection is closed and the multicast network with them.
func (d *Daemon) Close() { d.shutdown(false) }

// Shutdown shuts the daemon down gracefully: every session is sent a Bye
// behind the answers it still has queued, its writer drains them (bounded
// by the write deadline), and only then are connections closed. Serve
// calls it on context cancellation.
func (d *Daemon) Shutdown() { d.shutdown(true) }

func (d *Daemon) shutdown(graceful bool) {
	if !d.hub.Close(graceful) {
		return
	}
	d.net.Close()
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
// returns the number of subscriptions restored; they belong to no session
// until their client says Hello, which starts it from a clean slate like
// any reconnect (control). The plan is marked dirty
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
			if err := d.control(nil, clientID, wire.TypeSubscribe, payload); err != nil {
				return restored, err
			}
			restored++
		default:
			return restored, fmt.Errorf("daemon: unexpected frame type %d in subscription file", ft)
		}
	}
}
