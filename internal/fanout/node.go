// The connection engine: the one kind of node every tier runs (§2, §7 —
// take subscriptions from below and pass them toward the planner, send
// answers back down). A Hub accepts connections, reads each one's control
// frames, keeps the client registry and routes control frames both ways;
// what differs between tiers is only its Upstream. The root daemon is the
// node at hop 0, whose upstream is a function call into its planner; a
// relay's upstream wraps frames onto its link to the next node up.
//
// Privilege rule, the same at every tier: a client speaks the query
// protocol for itself; a session that sends RelaySub becomes a relay
// feed and from then on speaks only RelayCtl — its downstream clients'
// control frames, wrapped, never for its own id — and Refresh.
//
// Supersede rule: each registered client id has one owner session (its
// own connection, or the feed it is routed through). A Hello claims the
// id from a clean slate and tears down a predecessor connection of the
// same id; a frame for an id its sender does not own is ignored, and a
// direct session that finds its id taken over ends.
package fanout

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// Upstream is where a node's control plane leads.
type Upstream interface {
	// Control takes one control frame for client id: Hello (start the
	// client from a clean slate), Subscribe, Unsubscribe, Ready, Refresh
	// or Bye (drop everything it registered). The hub calls it under the
	// registry lock, so the owner check, the upstream's state and the
	// client's entry change in one critical section. An error refuses a
	// Subscribe or Unsubscribe; the client is sent it as an Error frame.
	Control(id int, ft uint8, payload []byte) error
	// Fabric returns the network sessions attach to and this node's hop
	// from the root; the network is nil while there is none yet (a relay
	// before its first RelayAck).
	Fabric() (*multicast.Network, int)
}

// client is one registry entry.
type client struct {
	owner  *Session // nil for a subscription restored from a file
	direct bool     // owner is the client's own connection, not a feed
	// subs holds the client's raw Subscribe payloads by query id: what
	// Replay re-announces after the upstream link is lost.
	subs map[query.ID][]byte
}

// sendBuffer is the socket send-buffer size requested for each session
// connection. The fan-out path writes bursts of small frames; each lands
// in the send queue as an skb whose true size the kernel accounts at 1-2
// KiB regardless of payload, and the skbs are only freed on ACK — which a
// quiet receiver may delay tens of milliseconds. The Linux default budget
// (tcp_wmem[1] = 16 KiB) fits only a handful of such bursts, so a publish
// cycle's flush ends up blocked on ACK clocking instead of CPU. A 256 KiB
// budget absorbs a full cycle's burst per session; the kernel allocates it
// only as used.
const sendBuffer = 256 << 10

// Serve accepts connections on ln until Accept fails — the owner closes
// ln to stop it — and serves each in its own goroutine. Sessions open with
// lim; one that sends nothing for idle is dropped (zero disables the
// check). Close waits for the connections Serve started.
func (h *Hub) Serve(ln net.Listener, lim Limits, idle time.Duration) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			continue
		}
		h.wg.Add(1)
		h.mu.Unlock()
		go func() {
			defer h.wg.Done()
			if err := h.serve(conn, lim, idle); err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
				h.logf("fanout: session error: %v", err)
			}
		}()
	}
}

// serve runs one connection: Hello, then control frames until Bye or
// disconnect; teardown releases every client the session owned.
func (h *Hub) serve(conn net.Conn, lim Limits, idle time.Duration) error {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(sendBuffer) // best effort
	}
	var s *Session
	defer func() {
		if s != nil {
			s.Close()
			h.drop(s)
		}
	}()
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		ft, payload, err := wire.ReadFrame(conn)
		if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
			h.metrics.SessionsExpiredIdle.Inc()
			return fmt.Errorf("fanout: session idle past %s: %w", idle, err)
		}
		if err != nil {
			return err
		}
		if s == nil {
			if ft != wire.TypeHello {
				return fmt.Errorf("fanout: expected Hello, got frame type %d", ft)
			}
			hello, err := wire.UnmarshalHello(payload)
			if err != nil {
				return err
			}
			if s, err = h.Open(conn, hello.ClientID, lim); err != nil {
				return err
			}
			h.claim(s, hello.ClientID)
			continue
		}
		feed := s.IsFeed()
		switch {
		case ft == wire.TypeBye:
			return nil
		case ft == wire.TypeRelaySub && !feed:
			var rs wire.RelaySub
			if rs, err = wire.UnmarshalRelaySub(payload); err == nil {
				err = h.upgrade(s, rs)
			}
		case ft == wire.TypeRelayCtl && feed:
			var rc wire.RelayCtl
			if rc, err = wire.UnmarshalRelayCtl(payload); err == nil && rc.ClientID == s.ClientID {
				err = fmt.Errorf("fanout: relay %d wrapped a frame for its own id", s.ClientID)
			}
			if err == nil {
				err = h.Control(s, rc.ClientID, rc.Inner, rc.Payload)
			}
		case ft == wire.TypeRefresh || !feed && (ft == wire.TypeSubscribe || ft == wire.TypeUnsubscribe || ft == wire.TypeReady):
			err = h.Control(s, s.ClientID, ft, payload)
		default:
			err = fmt.Errorf("fanout: unexpected frame type %d (relay feed: %v)", ft, feed)
		}
		if err != nil {
			return err
		}
	}
}

// upgrade turns a session into a relay feed of the masked channels and
// acknowledges it one hop further from the root. Masks are relative to
// the root's channel space, which every tier shares. A node without a
// fabric yet cannot say how many channels there are, so the relay is told
// why it is turned away, like one that selects no channel, and closed.
func (h *Hub) upgrade(s *Session, rs wire.RelaySub) error {
	fabric, hop := h.up.Fabric()
	err := errors.New("no upstream feed acknowledged")
	if fabric != nil {
		if channels := wire.MaskChannels(rs.Mask, fabric.Channels()); len(channels) == 0 {
			err = errors.New("relay subscription selects no channels")
		} else if err = s.Feed(fabric, channels); err == nil {
			h.logf("fanout: relay %d feeding %d channels at hop %d", s.ClientID, len(channels), hop+1)
			// Queued after the feed is live: every frame published after
			// the relay reads the ack reaches it.
			s.Push(wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: hop + 1, Channels: fabric.Channels()}))
			return nil
		}
	}
	s.Push(wire.TypeError, wire.MarshalError(wire.Error{Msg: err.Error()}))
	s.Finish()
	return fmt.Errorf("fanout: relay %d turned away: %w", s.ClientID, err)
}

// Control applies one control frame on behalf of client id: a direct
// session's own frame, the inner frame of a feed's RelayCtl, or (owner
// nil) a line of a subscription file. A frame for an id the sender does
// not own is ignored — its successor's registrations are not the
// sender's to change — except that a direct session learns it was
// superseded and ends, and a subscription file is refused.
func (h *Hub) Control(owner *Session, id int, ft uint8, payload []byte) error {
	var qid query.ID
	switch ft {
	case wire.TypeHello:
		// The inner payload carries the wrapper's id; the wrapper is
		// authoritative.
		h.claim(owner, id)
		return nil
	case wire.TypeBye:
		h.release(owner, id)
		return nil
	case wire.TypeSubscribe:
		sub, err := wire.UnmarshalSubscribe(payload)
		if err != nil {
			return err
		}
		qid = sub.Query.ID
	case wire.TypeUnsubscribe:
		unsub, err := wire.UnmarshalUnsubscribe(payload)
		if err != nil {
			return err
		}
		qid = unsub.ID
	case wire.TypeReady, wire.TypeRefresh:
	default:
		return fmt.Errorf("fanout: unsupported control frame type %d for client %d", ft, id)
	}
	h.cmu.Lock()
	c := h.clients[id]
	if c == nil && ft == wire.TypeSubscribe {
		// Implicit claim: a restored subscription, or a relay that
		// skipped the Hello.
		c = h.register(owner, id)
	}
	owned := c != nil && c.owner == owner
	var err error
	if owned {
		if err = h.up.Control(id, ft, payload); err == nil {
			switch ft {
			case wire.TypeSubscribe:
				c.subs[qid] = bytes.Clone(payload)
			case wire.TypeUnsubscribe:
				delete(c.subs, qid)
			}
		}
	}
	h.cmu.Unlock()
	switch {
	case owned && err == nil:
	case owner == nil && !owned:
		return fmt.Errorf("fanout: client %d has a live session", id)
	case owner == nil:
		return err
	case owned:
		h.deliver(owner, c.direct, id, wire.TypeError, wire.MarshalError(wire.Error{Msg: err.Error()}))
	case owner.ClientID == id && !owner.IsFeed():
		return errors.New("fanout: session superseded")
	}
	return nil
}

// register makes owner the owner of client id with nothing subscribed.
// Callers hold h.cmu.
func (h *Hub) register(owner *Session, id int) *client {
	c := &client{owner: owner, direct: owner != nil && owner.ClientID == id, subs: make(map[query.ID][]byte)}
	h.clients[id] = c
	return c
}

// claim registers client id under owner from a clean slate: the upstream
// drops whatever the id registered before — under a half-open
// predecessor connection, another relay, or a subscription file — and a
// predecessor connection of that id is torn down (a reconnecting client
// id replaces its predecessor instead of being rejected).
func (h *Hub) claim(owner *Session, id int) {
	h.cmu.Lock()
	old := h.clients[id]
	h.register(owner, id)
	h.up.Control(id, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id})) // Hello is never refused
	h.cmu.Unlock()
	if old != nil && old.direct && old.owner != owner {
		old.owner.Close()
		h.metrics.SessionsSuperseded.Inc()
		h.logf("fanout: client %d superseded by a new connection", id)
	}
}

// releaseLocked drops client id's registration if owner owns it. Callers
// hold h.cmu.
func (h *Hub) releaseLocked(owner *Session, id int) {
	if c := h.clients[id]; c != nil && c.owner == owner {
		delete(h.clients, id)
		h.up.Control(id, wire.TypeBye, nil) // Bye is never refused
	}
}

// release is releaseLocked under the registry lock: a client's Bye.
func (h *Hub) release(owner *Session, id int) {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	h.releaseLocked(owner, id)
}

// drop releases every client a closed session owned — its own id, or
// every client a feed carried — so the upstream stops addressing them. A
// relay re-registers its clients wholesale after it reconnects, so a
// relay blip costs one unsubscribe/resubscribe churn and one replan — the
// same contract direct sessions have.
func (h *Hub) drop(s *Session) {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	if !s.IsFeed() {
		h.releaseLocked(s, s.ClientID)
		return
	}
	for id := range h.clients {
		h.releaseLocked(s, id)
	}
}

// Deliver queues one control frame for client id on the session that
// owns it, in-band with the answers around it: as is to a client whose
// session is its own connection — an Assigned first moves the session to
// its channel, so the move lands exactly between the frames queued ahead
// of it and those published after — and wrapped in RelayCtl to a client
// behind a feed. A client with no session (gone while the frame was in
// flight, or restored from a file) is skipped. It reports whether an
// Assigned moved a session.
func (h *Hub) Deliver(id int, ft uint8, payload []byte) (moved bool) {
	h.cmu.Lock()
	c := h.clients[id]
	h.cmu.Unlock()
	if c == nil || c.owner == nil {
		return false
	}
	return h.deliver(c.owner, c.direct, id, ft, payload)
}

func (h *Hub) deliver(owner *Session, direct bool, id int, ft uint8, payload []byte) (moved bool) {
	if !direct {
		owner.Push(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{ClientID: id, Inner: ft, Payload: payload}))
		return false
	}
	if ft == wire.TypeAssigned {
		a, err := wire.UnmarshalAssigned(payload)
		fabric, _ := h.up.Fabric()
		if err == nil && fabric == nil {
			err = errors.New("no upstream feed acknowledged")
		}
		if err == nil {
			moved, err = owner.Bind(fabric, a.Channel)
		}
		if err != nil {
			h.logf("fanout: assignment for client %d dropped: %v", id, err)
			return false
		}
	}
	owner.Push(ft, payload)
	return moved
}

// Replay re-announces through the upstream, under the registry lock,
// every client whose owner is its own connection: a Hello and its
// subscriptions. Clients behind a feed are not replayed; their relay
// holds them and replays them itself. attach runs first in the same
// critical section, so a registration that lands concurrently is sent
// either by the replay or after it, never twice or not at all. It
// returns the number of clients replayed.
func (h *Hub) Replay(attach func()) int {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	attach()
	n := 0
	for id, c := range h.clients {
		if !c.direct {
			continue
		}
		h.up.Control(id, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id}))
		for _, raw := range c.subs {
			h.up.Control(id, wire.TypeSubscribe, raw)
		}
		n++
	}
	return n
}

// Clients returns the number of registered clients.
func (h *Hub) Clients() int {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	return len(h.clients)
}
