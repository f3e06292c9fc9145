// Package relay implements the hierarchical fan-out tier: a daemon-like
// process that subscribes upstream as a privileged feed session
// (TypeRelaySub), receives each channel's shared encode-once answer
// frames exactly once, and re-fans them out verbatim to its own
// downstream sessions. No decode, no re-encode, no re-plan: the bytes a
// client receives through a relay are the bytes the root published,
// sequence numbers included, so netclient gap detection and Refresh
// recovery work unchanged through any number of hops.
//
// Control remains end to end. A downstream client speaks the ordinary
// query protocol to the relay; the relay wraps each control frame in
// TypeRelayCtl and forwards it upstream, where the root registers the
// subscription under the client's global id and plans it like any direct
// client's. Channel assignments come back the same way — wrapped in the
// relay session's queue, behind the last frames of the old plan and ahead
// of the cycle's answer frames on the same TCP stream — so the relay
// rebinds the client exactly between the two.
//
// The data plane is the same component the root uses: every downstream
// session is a fanout.Session (one queue, one writer, control in-band)
// on a local multicast.Network with the upstream's channel count, and an
// upstream answer frame is published on it verbatim. Slow consumers,
// write deadlines, the eviction Error frame and the lag sweep therefore
// behave at a relay exactly as they do at the root.
//
// The upstream link is resilient the way netclient sessions are:
// exponential backoff with equal jitter, and on every reconnect the
// relay replays its clients' registrations (the root released them when
// the old feed session died) and requests one full refresh so downstream
// answer state rebuilds without manual intervention.
package relay

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"qsub/internal/fanout"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// Defaults mirror the daemon's session-hardening parameters.
const (
	DefaultWriteTimeout     = 10 * time.Second
	DefaultSubscriberBuffer = 256
)

// connReadBuffer sizes the buffered readers on both the upstream feed
// and downstream session connections.
const connReadBuffer = 32 << 10

// Config parameterizes a relay.
type Config struct {
	// Upstream is the address of the daemon (or relay) to feed from.
	Upstream string
	// RelayID identifies the relay's upstream session. It shares the
	// client id space, so deployments give relays ids far from any
	// client's (the supersede rule applies to relays too).
	RelayID int
	// Channels restricts the upstream subscription to these channels;
	// nil subscribes every channel, which is also what lets downstream
	// clients be assigned anywhere.
	Channels []int

	// SubscriberBuffer is the per-downstream-session frame queue depth
	// (default DefaultSubscriberBuffer). A session whose queue fills is
	// evicted, exactly like a slow consumer on the root daemon.
	SubscriberBuffer int
	// WriteTimeout bounds each downstream flush and upstream control
	// write (default DefaultWriteTimeout).
	WriteTimeout time.Duration

	// MinBackoff/MaxBackoff/MaxAttempts/JitterSeed shape the upstream
	// reconnect loop, with netclient's semantics and defaults.
	MinBackoff  time.Duration
	MaxBackoff  time.Duration
	MaxAttempts int
	JitterSeed  int64

	// Dial opens the upstream connection; nil uses net.Dial("tcp", ...).
	// Tests inject fault-wrapped connections here.
	Dial func(addr string) (net.Conn, error)
	// Metrics receives the relay's instrumentation; nil allocates a
	// private catalog.
	Metrics *metrics.Catalog
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// route is where control frames for one downstream client go: the
// session that owns it, whether the client is directly connected (vs.
// living behind a further downstream relay), and — for direct clients —
// the raw Subscribe payloads to replay after an upstream reconnect.
type route struct {
	sess   *fanout.Session
	direct bool
	subs   map[query.ID][]byte
}

// Relay is a running relay tier process.
type Relay struct {
	cfg     Config
	metrics *metrics.Catalog
	// hub holds the delivery side of every downstream session — a direct
	// client or a downstream relay (see internal/fanout).
	hub *fanout.Hub

	// mu guards the routing table and the upstream connection's control
	// writes. Registration and forwarding happen under one critical
	// section, so a reconnect replay can neither miss nor double-send a
	// registration.
	mu        sync.Mutex
	routes    map[int]*route
	uconn     net.Conn
	connected bool
	hop       int
	connects  int
	// net is the local fabric the downstream sessions' queues attach to:
	// as many channels as the upstream network has, so nil before the
	// first RelayAck. Written by the upstream read loop only.
	net *multicast.Network

	wg sync.WaitGroup
}

// New builds a relay; Run starts it.
func New(cfg Config) (*Relay, error) {
	if cfg.Upstream == "" {
		return nil, errors.New("relay: no upstream address configured")
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = DefaultSubscriberBuffer
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewCatalog(0)
	}
	r := &Relay{cfg: cfg, metrics: cfg.Metrics, routes: make(map[int]*route)}
	r.hub = fanout.NewHub(cfg.Metrics, func() int64 { return time.Now().UnixNano() }, r.logf)
	return r, nil
}

// Metrics returns the relay's instrument catalog (never nil).
func (r *Relay) Metrics() *metrics.Catalog { return r.metrics }

func (r *Relay) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Run accepts downstream sessions on ln and maintains the upstream feed
// until ctx ends (returning nil) or MaxAttempts consecutive upstream
// dials fail (returning the last dial error). The listener is closed on
// return.
func (r *Relay) Run(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				if err := r.handle(conn); err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
					r.logf("relay: session error: %v", err)
				}
			}()
		}
	}()

	err := r.runUpstream(ctx)
	r.hub.Close(false)
	ln.Close()
	r.wg.Wait()
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// ---- upstream feed ----

// runUpstream drives the connect/feed/backoff loop.
func (r *Relay) runUpstream(ctx context.Context) error {
	seed := r.cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		conn, err := r.connectUpstream()
		if err != nil {
			failures++
			if r.cfg.MaxAttempts > 0 && failures >= r.cfg.MaxAttempts {
				return fmt.Errorf("relay: giving up after %d upstream dial failures: %w", failures, err)
			}
			delay := netclient.Backoff(r.cfg.MinBackoff, r.cfg.MaxBackoff, failures, rng)
			r.logf("relay: upstream %s: %v (retrying in %s)", r.cfg.Upstream, err, delay)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(delay):
			}
			continue
		}
		failures = 0

		// Unblock the feed read when the context ends mid-session.
		watch := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-watch:
			}
		}()
		err = r.serveUpstream(conn)
		close(watch)
		r.detachUpstream(conn)
		if ctx.Err() != nil {
			return nil
		}
		failures = 1
		delay := netclient.Backoff(r.cfg.MinBackoff, r.cfg.MaxBackoff, failures, rng)
		r.logf("relay: upstream feed ended: %v (reconnecting in %s)", err, delay)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
	}
}

// connectUpstream dials the upstream, performs the relay handshake and
// replays the routing table. On a reconnect the root has already
// released every registration this relay owned (teardown-on-disconnect),
// so the replay starts from a clean registry and cannot collide.
func (r *Relay) connectUpstream() (net.Conn, error) {
	conn, err := r.cfg.Dial(r.cfg.Upstream)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(256 << 10) // best effort, matches the daemon
	}
	if err := wire.WriteFrame(conn, wire.TypeHello,
		wire.MarshalHello(wire.Hello{ClientID: r.cfg.RelayID})); err != nil {
		conn.Close()
		return nil, err
	}
	if err := wire.WriteFrame(conn, wire.TypeRelaySub,
		wire.MarshalRelaySub(wire.RelaySub{Mask: wire.ChannelMask(r.cfg.Channels...)})); err != nil {
		conn.Close()
		return nil, err
	}

	r.mu.Lock()
	r.uconn = conn
	r.connects++
	reconnect := r.connects > 1
	replayed := 0
	for id, rt := range r.routes {
		if !rt.direct {
			continue
		}
		r.forwardCtlLocked(id, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id}))
		for _, raw := range rt.subs {
			r.forwardCtlLocked(id, wire.TypeSubscribe, raw)
		}
		replayed++
	}
	r.mu.Unlock()

	if reconnect {
		r.metrics.RelayReconnects.Inc()
		// Everything published while disconnected is gone; ask the root
		// for full answers so downstream clients rebuild complete state.
		if err := wire.WriteFrame(conn, wire.TypeRefresh, nil); err != nil {
			conn.Close()
			return nil, err
		}
		r.logf("relay: reconnected upstream %s, replayed %d clients, requested full refresh",
			r.cfg.Upstream, replayed)
	}
	return conn, nil
}

// detachUpstream clears the upstream connection state after a feed ends,
// and drops downstream relay sessions: the root released their clients
// with ours, and only they hold the registrations to replay, so they
// must reconnect and replay themselves.
func (r *Relay) detachUpstream(conn net.Conn) {
	conn.Close()
	r.mu.Lock()
	if r.uconn == conn {
		r.uconn = nil
		r.connected = false
	}
	r.mu.Unlock()
	for _, s := range r.hub.Sessions() {
		if s.IsFeed() {
			s.Abort()
		}
	}
}

// serveUpstream consumes the upstream feed until the connection ends.
func (r *Relay) serveUpstream(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, connReadBuffer)
	var rbuf []byte
	for {
		ft, payload, err := wire.ReadFrameAppend(rbuf[:0], br)
		rbuf = payload
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeAnswer:
			if len(payload) < 4 {
				return errors.New("relay: short answer frame")
			}
			r.ingest(payload)
		case wire.TypeRelayAck:
			ack, err := wire.UnmarshalRelayAck(payload)
			if err != nil {
				return err
			}
			if err := r.establish(ack); err != nil {
				return err
			}
			r.metrics.RelayHop.Set(int64(ack.Hop))
			r.logf("relay: feed established at hop %d (%d upstream channels)", ack.Hop, ack.Channels)
		case wire.TypeRelayCtl:
			rc, err := wire.UnmarshalRelayCtl(payload)
			if err != nil {
				return err
			}
			r.routeCtl(rc, payload)
		case wire.TypeError:
			e, err := wire.UnmarshalError(payload)
			if err != nil {
				return err
			}
			r.logf("relay: upstream error: %s", e.Msg)
		case wire.TypeBye:
			return errors.New("relay: upstream said goodbye")
		default:
			return fmt.Errorf("relay: unexpected frame type %d from upstream", ft)
		}
	}
}

// establish records an acknowledged upstream feed and makes the local
// fabric match the upstream's channel count. A reconnect that finds a
// different count (the upstream was reconfigured) closes every downstream
// session — their bindings are channel numbers of the old network — and
// builds a fresh fabric for them to redial into.
func (r *Relay) establish(ack wire.RelayAck) error {
	old, fabric := r.net, r.net
	if old == nil || old.Channels() != ack.Channels {
		var err error
		if fabric, err = multicast.NewNetwork(ack.Channels); err != nil {
			return fmt.Errorf("relay: upstream acknowledged %d channels: %w", ack.Channels, err)
		}
		fabric.SetMetrics(r.metrics.FanoutDeliveries, r.metrics.FanoutDropped, r.metrics.FanoutEvictions, nil)
	}
	r.mu.Lock()
	r.net, r.connected, r.hop = fabric, true, ack.Hop
	r.mu.Unlock()
	if old != nil && old != fabric {
		r.logf("relay: upstream now has %d channels (was %d), dropping downstream sessions", ack.Channels, old.Channels())
		for _, s := range r.hub.Sessions() {
			s.Abort()
		}
		old.Close()
	}
	return nil
}

// ingest publishes one upstream answer frame on its channel of the local
// fabric, which queues it for every downstream session bound to (or
// masked onto) that channel. The frame bytes are copied out of the read
// buffer exactly once and shared by every queue — the relay never decodes
// the message, it routes on the payload's leading channel field alone.
// Before the first RelayAck there is no fabric and nobody bound: the
// frame is counted and dropped.
func (r *Relay) ingest(payload []byte) {
	frame := wire.AppendFrame(nil, wire.TypeAnswer, payload)
	r.metrics.RelayFrames.Inc()
	r.metrics.RelayBytes.Add(uint64(len(frame)))
	if r.net == nil {
		return
	}
	channel := int(binary.BigEndian.Uint32(payload[:4]))
	if err := r.net.Publish(multicast.Message{Channel: channel, Frame: frame}); err != nil {
		r.logf("relay: upstream answer frame dropped: %v", err)
	}
}

// routeCtl dispatches one wrapped control frame from upstream to the
// downstream session that owns the client. For a direct client the
// wrapper is removed (the client speaks the plain protocol); for a
// client behind a further relay the wrapped frame is forwarded verbatim.
// Either way the frame travels through the session's ordered queue, so
// an Assigned never overtakes — or is overtaken by — the answer frames
// around it.
func (r *Relay) routeCtl(rc wire.RelayCtl, raw []byte) {
	r.mu.Lock()
	rt := r.routes[rc.ClientID]
	r.mu.Unlock()
	if rt == nil {
		return // client disconnected while the frame was in flight
	}
	if !rt.direct {
		rt.sess.Push(wire.TypeRelayCtl, raw)
		return
	}
	if rc.Inner == wire.TypeAssigned {
		// The move happens here, on the upstream read loop, between the
		// last answer frame of the old plan and the first of the new one:
		// the root queued them around the Assigned in that order.
		a, err := wire.UnmarshalAssigned(rc.Payload)
		if err == nil && r.net == nil {
			err = errors.New("no upstream feed acknowledged")
		}
		if err == nil {
			_, err = rt.sess.Bind(r.net, a.Channel)
		}
		if err != nil {
			r.logf("relay: assignment for client %d dropped: %v", rc.ClientID, err)
			return
		}
	}
	rt.sess.Push(rc.Inner, rc.Payload)
}

// forwardCtlLocked wraps one control frame for clientID and writes it
// upstream. Callers hold r.mu.
func (r *Relay) forwardCtlLocked(clientID int, inner uint8, payload []byte) {
	r.forwardRawLocked(wire.MarshalRelayCtl(wire.RelayCtl{ClientID: clientID, Inner: inner, Payload: payload}))
}

// forwardRawLocked writes an already-wrapped RelayCtl payload upstream
// (verbatim, for multi-hop forwarding). Callers hold r.mu; a nil upstream
// connection silently drops the frame — the registration is in the
// routing table and the next reconnect replays it.
func (r *Relay) forwardRawLocked(payload []byte) {
	if r.uconn == nil {
		return
	}
	if r.cfg.WriteTimeout > 0 {
		r.uconn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	}
	if err := wire.WriteFrame(r.uconn, wire.TypeRelayCtl, payload); err != nil {
		r.logf("relay: upstream ctl write: %v", err)
		r.uconn.Close() // the feed loop notices and reconnects
	}
}

// ---- downstream sessions ----

// handle runs one downstream session: Hello, then either the plain query
// protocol (a client) or RelaySub (a further relay tier).
func (r *Relay) handle(conn net.Conn) error {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(256 << 10) // best effort
	}
	br := bufio.NewReaderSize(conn, connReadBuffer)
	ft, payload, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	if ft != wire.TypeHello {
		return fmt.Errorf("relay: expected Hello, got frame type %d", ft)
	}
	hello, err := wire.UnmarshalHello(payload)
	if err != nil {
		return err
	}

	// A downstream session that cannot keep up is evicted, exactly like
	// a slow consumer on the root daemon's default policy.
	s, err := r.hub.Open(conn, hello.ClientID, fanout.Limits{
		Buffer: r.cfg.SubscriberBuffer, Policy: multicast.Evict, WriteTimeout: r.cfg.WriteTimeout})
	if err != nil {
		return err
	}
	defer r.dropSession(s)

	// Route and announce the client upstream. A reconnecting client id
	// takes its route over from its predecessor session and starts from a
	// clean slate, as the root does on the Hello forwarded here (the
	// relay-side supersede; the root's own does not fire because the
	// relay session persists).
	rt := &route{sess: s, direct: true, subs: make(map[query.ID][]byte)}
	r.mu.Lock()
	if old := r.routes[hello.ClientID]; old != nil && old.direct {
		old.sess.Abort()
	}
	r.routes[hello.ClientID] = rt
	r.forwardCtlLocked(hello.ClientID, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: hello.ClientID}))
	r.mu.Unlock()

	var rbuf []byte
	for {
		ft, payload, err := wire.ReadFrameAppend(rbuf[:0], br)
		rbuf = payload
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeSubscribe, wire.TypeUnsubscribe, wire.TypeReady, wire.TypeRefresh:
			if err := r.forwardClient(rt, ft, payload); err != nil {
				return err
			}
		case wire.TypeRelaySub:
			rs, err := wire.UnmarshalRelaySub(payload)
			if err != nil {
				return err
			}
			if err := r.upgradeFeed(s, rs); err != nil {
				return err
			}
		case wire.TypeRelayCtl:
			// Multi-hop: a downstream relay forwards its clients' control
			// frames. Track the route (so returning ctl frames find the
			// session) and pass the wrapper upstream verbatim.
			rc, err := wire.UnmarshalRelayCtl(payload)
			if err != nil {
				return err
			}
			r.mu.Lock()
			switch rc.Inner {
			case wire.TypeHello:
				r.routes[rc.ClientID] = &route{sess: s, direct: false}
			case wire.TypeBye:
				if inner := r.routes[rc.ClientID]; inner != nil && inner.sess == s {
					delete(r.routes, rc.ClientID)
				}
			}
			r.forwardRawLocked(payload) // written before the read buffer is reused
			r.mu.Unlock()
		case wire.TypeBye:
			return nil
		default:
			return fmt.Errorf("relay: unexpected frame type %d", ft)
		}
	}
}

// forwardClient records one control frame of a directly connected client
// in its route (the subscriptions to replay after an upstream reconnect)
// and forwards it upstream. A session whose client id has since been
// taken over by a reconnect no longer speaks for it: its late frames must
// not reach the successor's registrations, and the session ends.
func (r *Relay) forwardClient(rt *route, ft uint8, payload []byte) error {
	var id query.ID
	switch ft {
	case wire.TypeSubscribe:
		sub, err := wire.UnmarshalSubscribe(payload)
		if err != nil {
			return err
		}
		id = sub.Query.ID
	case wire.TypeUnsubscribe:
		unsub, err := wire.UnmarshalUnsubscribe(payload)
		if err != nil {
			return err
		}
		id = unsub.ID
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.routes[rt.sess.ClientID] != rt {
		return errors.New("relay: session superseded")
	}
	switch ft {
	case wire.TypeSubscribe:
		rt.subs[id] = append([]byte(nil), payload...)
	case wire.TypeUnsubscribe:
		delete(rt.subs, id)
	}
	r.forwardCtlLocked(rt.sess.ClientID, ft, payload)
	return nil
}

// upgradeFeed turns a downstream session into a relay feed of its own:
// attach its queue to every masked channel and acknowledge one hop
// further from the root, behind nothing and ahead of every frame
// published from here on. Masks are relative to the root's channel
// space, which every tier shares. A relay that has no acknowledged
// upstream feed yet cannot say how many channels there are; the
// downstream relay is turned away and retries.
func (r *Relay) upgradeFeed(s *fanout.Session, rs wire.RelaySub) error {
	r.mu.Lock()
	hop, fabric := r.hop, r.net
	r.mu.Unlock()
	if fabric == nil {
		return errors.New("relay: downstream relay before the first upstream RelayAck")
	}
	channels := wire.MaskChannels(rs.Mask, fabric.Channels())
	if len(channels) == 0 {
		return fmt.Errorf("relay: downstream relay %d subscribed an empty channel set", s.ClientID)
	}
	if err := s.Feed(fabric, channels); err != nil {
		return err
	}
	s.Push(wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: hop + 1, Channels: fabric.Channels()}))
	return nil
}

// dropSession tears one downstream session down: close its queue and
// connection and join its writer, then release its routes (announcing Bye
// upstream for every client it carried, so the root unsubscribes them).
func (r *Relay) dropSession(s *fanout.Session) {
	s.Close()
	r.mu.Lock()
	for id, rt := range r.routes {
		if rt.sess != s {
			continue
		}
		delete(r.routes, id)
		r.forwardCtlLocked(id, wire.TypeBye, nil)
	}
	r.mu.Unlock()
}
