// Package daemon turns the subscription system into a network service: a
// TCP listener speaking the wire protocol, bridging connected clients to
// the in-process multicast network. Each connected client registers
// subscriptions, is told its channel assignment after every planning
// cycle, and receives the merged answers of its channel as TypeAnswer
// frames — the deployable version of the BADD dissemination loop (§2).
//
// The daemon is the node at hop 0 of the connection engine every tier
// runs (fanout.Hub: accept, the read loop, the client registry with its
// privilege and supersede rules); its upstream is the planner. The
// delivery side of every connection — direct client or relay feed — is a
// fanout.Session: one bounded queue and one writer per connection,
// control frames in-band with the answers. It degrades gracefully under
// slow, dead and reconnecting clients: a slow-consumer policy on the
// queue (default: evict), read-idle and per-flush write deadlines, a
// supersede rule so a reconnecting client id replaces its half-open
// predecessor, and context-based graceful shutdown that drains the
// writers before closing connections.
package daemon

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/fanout"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
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

	// hub is the connection engine at hop 0: every connection — direct
	// client or relay feed — and the client registry (see
	// internal/fanout). Its upstream is the planner (root).
	hub *fanout.Hub

	planMu       sync.Mutex
	cycle        *server.Cycle
	dirty        bool
	refreshForce bool // a client requested full answers on the next cycle
	estimate     float64
	drift        server.DriftMonitor
	replans      int

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

		WriteTimeout:     DefaultWriteTimeout,
		SubscriberBuffer: DefaultSubscriberBuffer,
		SlowPolicy:       multicast.Evict,
	}
	d.hub = fanout.NewHub(cfg.Metrics, d.clockNano, d.logf, root{d})
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
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	err := d.hub.Serve(ln, fanout.Limits{Buffer: d.SubscriberBuffer, Policy: d.SlowPolicy, WriteTimeout: d.WriteTimeout},
		d.ReadIdleTimeout)
	switch {
	case ctx.Err() != nil:
		d.Shutdown()
		return nil
	case d.hub.Closed():
		return nil
	}
	return err
}

// root is the daemon's side of the connection engine: the node at hop 0,
// whose upstream is a function call into the planner.
type root struct{ *Daemon }

func (d root) Fabric() (*multicast.Network, int) { return d.net, 0 }

func (d root) Control(id int, ft uint8, payload []byte) error {
	switch ft {
	case wire.TypeHello, wire.TypeBye:
		// A client starts, and ends, with nothing registered: whatever
		// its id held before — under a predecessor connection, another
		// relay, or a subscription file — is released.
		if d.srv.Release(id) > 0 {
			d.markDirty()
		}
	case wire.TypeSubscribe, wire.TypeUnsubscribe:
		return d.changeSubscription(id, ft, payload)
	case wire.TypeRefresh:
		// Gap recovery: the client (or a relay that lost its upstream
		// stream) missed messages and wants full answers instead of a
		// delta on the next cycle.
		d.planMu.Lock()
		d.refreshForce = true
		d.planMu.Unlock()
		d.logf("daemon: client %d requested a full refresh", id)
	}
	// Ready is a synchronization hint: clients send it after their
	// subscriptions so the operator (or test) knows a cycle can run. The
	// daemon itself plans on RunCycle.
	return nil
}

// changeSubscription registers or removes one query of client id; an
// error refuses it.
func (d *Daemon) changeSubscription(id int, ft uint8, payload []byte) error {
	ev := trace.Event{Kind: trace.KindSubscribe, ClientID: id}
	if ft == wire.TypeSubscribe {
		sub, err := wire.UnmarshalSubscribe(payload)
		if err != nil {
			return err
		}
		if err := d.srv.Subscribe(id, sub.Query); err != nil {
			return err
		}
		ev.QueryID = uint64(sub.Query.ID)
	} else {
		unsub, err := wire.UnmarshalUnsubscribe(payload)
		if err != nil {
			return err
		}
		if !d.srv.Unsubscribe(id, unsub.ID) {
			return fmt.Errorf("no subscription with id %d", unsub.ID)
		}
		ev.Kind, ev.QueryID = trace.KindUnsubscribe, uint64(unsub.ID)
	}
	d.markDirty()
	d.record(ev)
	return nil
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

		// Every connected client is told its channel, in-band on the
		// session that owns it: after whatever the session still has
		// queued from the old plan and ahead of this cycle's answer
		// frames, so a client — or the relay that rebinds it on seeing
		// the wrapped frame — switches channel exactly between the two. A
		// direct client's own queue moves here; a relayed client has no
		// binding at this tier, its relay's feed carries its frames. It
		// is sent on every replan even to a session that stays put: the
		// plan's costs changed.
		for id, ch := range cy.ClientChannel {
			if d.hub.Deliver(id, wire.TypeAssigned, wire.MarshalAssigned(wire.Assigned{
				Channel:       ch,
				EstimatedCost: cy.EstimatedCost,
				InitialCost:   cy.InitialCost,
			})) {
				rec.SessionsMoved++
			}
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
// any reconnect. The plan is marked dirty
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
			if err := d.hub.Control(nil, clientID, wire.TypeSubscribe, payload); err != nil {
				return restored, err
			}
			restored++
		default:
			return restored, fmt.Errorf("daemon: unexpected frame type %d in subscription file", ft)
		}
	}
}
