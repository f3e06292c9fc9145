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
// A relay is the node the root is (fanout.Hub), one hop down: the same
// accept and read loop, privilege and supersede rules, client registry
// and delivery sessions (one queue, one writer, control in-band), on a
// local multicast.Network with the upstream's channel count where each
// upstream answer frame is published verbatim. Slow consumers, write
// deadlines, the eviction Error frame and the lag sweep therefore behave
// at a relay exactly as they do at the root. Only the upstream differs.
//
// The upstream link runs netclient's one reconnect loop (exponential
// backoff with equal jitter), and on every reconnect the relay replays
// its clients' registrations (the root released them when the old feed
// session died) and requests one full refresh so downstream answer state
// rebuilds without manual intervention.
package relay

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/fanout"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/netclient"
	"qsub/internal/wire"
)

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
	// (default daemon.DefaultSubscriberBuffer). A session whose queue
	// fills is evicted, exactly like a slow consumer on the root daemon.
	SubscriberBuffer int
	// WriteTimeout bounds each downstream flush and upstream control
	// write (default daemon.DefaultWriteTimeout).
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

// Relay is a running relay tier process.
type Relay struct {
	cfg     Config
	metrics *metrics.Catalog
	// hub is the connection engine: every downstream session — a direct
	// client or a downstream relay — and the client registry (see
	// internal/fanout). Its upstream is the link (link).
	hub *fanout.Hub

	// mu guards the upstream link: the connection control frames are
	// written to and what its RelayAck established. The hub's Control
	// takes it inside the registry lock, so nothing that holds it may
	// take that lock.
	mu        sync.Mutex
	uconn     net.Conn
	connected bool
	hop       int
	connects  int
	// net is the local fabric the downstream sessions' queues attach to:
	// as many channels as the upstream network has, so nil before the
	// first RelayAck. Written by the upstream read loop only.
	net *multicast.Network
}

// New builds a relay; Run starts it.
func New(cfg Config) (*Relay, error) {
	if cfg.Upstream == "" {
		return nil, errors.New("relay: no upstream address configured")
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = daemon.DefaultSubscriberBuffer
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = daemon.DefaultWriteTimeout
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewCatalog(0)
	}
	r := &Relay{cfg: cfg, metrics: cfg.Metrics}
	r.hub = fanout.NewHub(cfg.Metrics, func() int64 { return time.Now().UnixNano() }, r.logf, link{r})
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
// dials fail (returning an error wrapping the last one). The listener is
// closed on return.
func (r *Relay) Run(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		err = netclient.Loop(ctx, netclient.Config{Addr: r.cfg.Upstream, MinBackoff: r.cfg.MinBackoff,
			MaxBackoff: r.cfg.MaxBackoff, MaxAttempts: r.cfg.MaxAttempts, JitterSeed: r.cfg.JitterSeed, Logf: r.cfg.Logf},
			r.connectUpstream, r.serveUpstream)
		ln.Close()
	}()
	// A downstream session that cannot keep up is evicted, exactly like a
	// slow consumer on the root daemon's default policy.
	_ = r.hub.Serve(ln, fanout.Limits{Buffer: r.cfg.SubscriberBuffer, Policy: multicast.Evict, WriteTimeout: r.cfg.WriteTimeout}, 0) // ends with ln
	r.hub.Close(false)
	<-fed
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// link is the relay's side of the connection engine: its upstream wraps
// each control frame in RelayCtl onto the link to the next node up.
type link struct{ *Relay }

func (r link) Fabric() (*multicast.Network, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.net, r.hop
}

// Control forwards one control frame upstream. Without a live link the
// frame is dropped: the registry holds the client, and the next
// reconnect replays it.
func (r link) Control(id int, ft uint8, payload []byte) error {
	r.send(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{ClientID: id, Inner: ft, Payload: payload}))
	return nil
}

// send writes one frame upstream, if there is a link; a failed write
// closes it, which the feed loop notices and reconnects.
func (r *Relay) send(ft uint8, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.uconn == nil {
		return
	}
	if r.cfg.WriteTimeout > 0 {
		r.uconn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	}
	if err := wire.WriteFrame(r.uconn, ft, payload); err != nil {
		r.logf("relay: upstream write: %v", err)
		r.uconn.Close()
	}
}

// connectUpstream dials the upstream, performs the relay handshake and
// replays the registry. On a reconnect the root has already released
// every registration this relay owned (teardown-on-disconnect), so the
// replay starts from a clean registry and cannot collide.
func (r *Relay) connectUpstream() (net.Conn, error) {
	conn, err := r.cfg.Dial(r.cfg.Upstream)
	if err != nil {
		return nil, err
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
	reconnect := r.connects > 0 // written by this goroutine only
	replayed := r.hub.Replay(func() {
		r.mu.Lock()
		r.uconn = conn
		r.connects++
		r.mu.Unlock()
	})
	if reconnect {
		r.metrics.RelayReconnects.Inc()
		// Everything published while disconnected is gone; ask the root
		// for full answers so downstream clients rebuild complete state.
		r.send(wire.TypeRefresh, nil)
		r.logf("relay: reconnected upstream %s, replayed %d clients, requested full refresh",
			r.cfg.Upstream, replayed)
	}
	return conn, nil
}

// serveUpstream consumes the upstream feed until the connection ends,
// then detaches it: downstream relay sessions are dropped, since the root
// released their clients with ours and only they hold the registrations
// to replay, so they must reconnect and replay themselves.
func (r *Relay) serveUpstream(conn net.Conn) error {
	defer func() {
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
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
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
			// Routed to the session that owns the client through its
			// ordered queue, so an Assigned never overtakes — or is
			// overtaken by — the answer frames around it.
			rc, err := wire.UnmarshalRelayCtl(payload)
			if err != nil {
				return err
			}
			r.hub.Deliver(rc.ClientID, rc.Inner, rc.Payload)
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
