package relay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"qsub/internal/client"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// peer is one raw connection to a node — the root or a relay — that
// writes whatever frames a test wants and reads what comes back.
type peer struct {
	t    *testing.T
	conn net.Conn
	id   int
}

// dialPeer connects to addr and says Hello as id.
func dialPeer(t *testing.T, addr string, id int) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &peer{t: t, conn: conn, id: id}
	p.send(wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id}))
	return p
}

// dialFeed is dialPeer turned into a relay feed of every channel: it
// waits for the RelayAck and returns the hop it names.
func dialFeed(t *testing.T, addr string, id int) (*peer, int) {
	t.Helper()
	p := dialPeer(t, addr, id)
	p.send(wire.TypeRelaySub, wire.MarshalRelaySub(wire.RelaySub{}))
	ft, payload := p.read()
	ack, err := wire.UnmarshalRelayAck(payload)
	if ft != wire.TypeRelayAck || err != nil {
		t.Fatalf("feed %d: first frame has type %d (%v), want RelayAck", id, ft, err)
	}
	return p, ack.Hop
}

// send writes one frame. A write the node no longer reads is not an
// error here: what the node did with it is what the test checks.
func (p *peer) send(ft uint8, payload []byte) {
	_ = wire.WriteFrame(p.conn, ft, payload)
}

func (p *peer) subscribe(q query.Query) {
	p.t.Helper()
	payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
	if err != nil {
		p.t.Fatal(err)
	}
	p.send(wire.TypeSubscribe, payload)
}

// ctl sends one control frame wrapped in RelayCtl for client id.
func (p *peer) ctl(id int, inner uint8, payload []byte) {
	p.send(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{ClientID: id, Inner: inner, Payload: payload}))
}

// read returns the next frame, failing the test if none comes in 5 s.
func (p *peer) read() (uint8, []byte) {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := wire.ReadFrame(p.conn)
	if err != nil {
		p.t.Fatalf("peer %d: %v", p.id, err)
	}
	return ft, payload
}

// ended waits for the node to close the session and returns the message
// of the last Error frame it sent before closing ("" for none). It fails
// the test if the session is still open after 5 s.
func (p *peer) ended() string {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	last := ""
	for {
		ft, payload, err := wire.ReadFrame(p.conn)
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			p.t.Fatalf("peer %d: the node kept the session open", p.id)
		case err != nil:
			return last
		case ft == wire.TypeError:
			e, _ := wire.UnmarshalError(payload)
			last = e.Msg
		}
	}
}

// awaitError reads until an Error frame and returns its message.
func (p *peer) awaitError() string {
	p.t.Helper()
	for {
		if ft, payload := p.read(); ft == wire.TypeError {
			e, _ := wire.UnmarshalError(payload)
			return e.Msg
		}
	}
}

// extract reads answer frames until the peer's answer to q has every
// tuple the relation holds for it.
func (p *peer) extract(q query.Query, d *daemon.Daemon) {
	p.t.Helper()
	want := len(d.Server().Relation().Search(q.Region))
	if want == 0 {
		p.t.Fatalf("query %d selects no tuple", q.ID)
	}
	c := client.New(p.id, q)
	for len(c.Answer(q.ID)) < want {
		ft, payload := p.read()
		switch ft {
		case wire.TypeError:
			p.t.Fatalf("peer %d: server error %q", p.id, payload)
		case wire.TypeAnswer:
			m, err := wire.UnmarshalMessage(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			c.Handle(m)
		}
	}
}

// holds returns the query ids the root has registered for the client,
// sorted.
func holds(d *daemon.Daemon, id int) []query.ID {
	cy, err := d.Server().Plan()
	if err != nil {
		return nil // an empty registry does not plan
	}
	var ids []query.ID
	for i, q := range cy.Queries {
		if cy.Owners[i] == id {
			ids = append(ids, q.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func waitHolds(t *testing.T, d *daemon.Daemon, id int, want ...query.ID) {
	t.Helper()
	waitFor(t, fmt.Sprintf("client %d to hold queries %v", id, want), func() bool {
		return fmt.Sprint(holds(d, id)) == fmt.Sprint(want)
	})
}

func checkHolds(t *testing.T, d *daemon.Daemon, id int, want ...query.ID) {
	t.Helper()
	if got := holds(d, id); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("client %d holds queries %v, want %v", id, got, want)
	}
}

func subscribePayload(t *testing.T, q query.Query) []byte {
	t.Helper()
	payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// protocolNode is where a protocol case's peers dial: the root itself
// (hop 0) or a relay one hop below it (hop 1).
type protocolNode struct {
	root *daemon.Daemon
	addr string
	hop  int
	// superseded counts the node's supersedes.
	superseded func() uint64
}

// feedID is the id raw feeds in the protocol cases introduce themselves
// with: far from every client id, like a deployed relay's.
const feedID = 1 << 29

// TestSessionProtocol is the session protocol, one table run with the
// peers dialled straight to the root and again through one relay: the
// two tiers run one connection engine, so every rule holds at both.
func TestSessionProtocol(t *testing.T) {
	q := func(id query.ID, x float64) query.Query { return query.Range(id, geom.R(x, x, x+300, x+300)) }
	cases := []struct {
		name string
		run  func(t *testing.T, n protocolNode)
	}{
		{"redial_supersedes", func(t *testing.T, n protocolNode) {
			a := dialPeer(t, n.addr, 20)
			a.subscribe(q(1, 0))
			waitHolds(t, n.root, 20, 1)
			b := dialPeer(t, n.addr, 20) // a never said Bye
			b.subscribe(q(2, 100))
			waitHolds(t, n.root, 20, 2)
			a.subscribe(q(3, 200)) // late: a no longer speaks for 20
			a.ended()
			if got := n.superseded(); got != 1 {
				t.Errorf("the node counted %d supersedes, want 1", got)
			}
			if _, err := n.root.RunCycle(false); err != nil {
				t.Fatal(err)
			}
			b.extract(q(2, 100), n.root)
			checkHolds(t, n.root, 20, 2)
		}},
		{"relayctl_from_client_ends_session", func(t *testing.T, n protocolNode) {
			x := dialPeer(t, n.addr, 10)
			x.subscribe(q(1, 0))
			waitHolds(t, n.root, 10, 1)
			for _, spoof := range []struct {
				inner   uint8
				payload []byte
			}{
				{wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 10})},
				{wire.TypeBye, nil},
				{wire.TypeUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{ID: 1})},
			} {
				a := dialPeer(t, n.addr, 11)
				a.ctl(10, spoof.inner, spoof.payload)
				a.ended()
			}
			checkHolds(t, n.root, 10, 1)
			if _, err := n.root.RunCycle(false); err != nil {
				t.Fatal(err)
			}
			x.extract(q(1, 0), n.root)
		}},
		{"feed_relayctl_for_own_id_ends_feed", func(t *testing.T, n protocolNode) {
			f, _ := dialFeed(t, n.addr, feedID)
			f.ctl(feedID, wire.TypeSubscribe, subscribePayload(t, q(1, 0)))
			f.ended()
			checkHolds(t, n.root, feedID)
		}},
		{"feed_relayctl_for_unowned_client_ignored", func(t *testing.T, n protocolNode) {
			x := dialPeer(t, n.addr, 10)
			x.subscribe(q(1, 0))
			x.subscribe(q(2, 100))
			waitHolds(t, n.root, 10, 1, 2)
			f, _ := dialFeed(t, n.addr, feedID)
			f.ctl(10, wire.TypeUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{ID: 1}))
			f.ctl(10, wire.TypeBye, nil)
			// A client the feed does own marks the point where the node
			// has processed the frames before it.
			f.ctl(12, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 12}))
			f.ctl(12, wire.TypeSubscribe, subscribePayload(t, q(7, 400)))
			waitHolds(t, n.root, 12, 7)
			checkHolds(t, n.root, 10, 1, 2)
			if _, err := n.root.RunCycle(false); err != nil {
				t.Fatal(err)
			}
			x.extract(q(1, 0), n.root)
		}},
		{"bye_releases_only_sender", func(t *testing.T, n protocolNode) {
			x, y := dialPeer(t, n.addr, 30), dialPeer(t, n.addr, 31)
			x.subscribe(q(1, 0))
			y.subscribe(q(1, 0))
			f, _ := dialFeed(t, n.addr, feedID)
			for _, id := range []int{32, 33} {
				f.ctl(id, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id}))
				f.ctl(id, wire.TypeSubscribe, subscribePayload(t, q(1, 0)))
			}
			for _, id := range []int{30, 31, 32, 33} {
				waitHolds(t, n.root, id, 1)
			}
			x.send(wire.TypeBye, nil)
			f.ctl(32, wire.TypeBye, nil)
			waitHolds(t, n.root, 30)
			waitHolds(t, n.root, 32)
			x.ended()
			checkHolds(t, n.root, 31, 1)
			checkHolds(t, n.root, 33, 1)
		}},
		{"relaysub_selecting_no_channel_refused", func(t *testing.T, n protocolNode) {
			p := dialPeer(t, n.addr, feedID)
			p.send(wire.TypeRelaySub, wire.MarshalRelaySub(wire.RelaySub{Mask: []uint64{0}}))
			if msg := p.ended(); !strings.Contains(msg, "selects no channels") {
				t.Fatalf("the turned-away relay was told %q", msg)
			}
		}},
		{"relaysub_acked_one_hop_down_and_refused_before", func(t *testing.T, n protocolNode) {
			if _, hop := dialFeed(t, n.addr, feedID); hop != n.hop+1 {
				t.Fatalf("a feed of the node at hop %d was acknowledged at hop %d", n.hop, hop)
			}
			if n.hop == 0 {
				return // the root has its fabric from the start
			}
			// A relay whose own upstream has not acknowledged it yet.
			up := startFakeUpstream(t)
			r, err := New(Config{Upstream: up.ln.Addr().String(), RelayID: 1 << 30, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			ran := make(chan error, 1)
			go func() { ran <- r.Run(ctx, ln) }()
			defer func() {
				cancel()
				<-ran
			}()
			feed := up.accept()
			p := dialPeer(t, ln.Addr().String(), feedID)
			p.send(wire.TypeRelaySub, wire.MarshalRelaySub(wire.RelaySub{}))
			if msg := p.ended(); !strings.Contains(msg, "no upstream feed acknowledged") {
				t.Fatalf("the relay turned away before its ack was told %q", msg)
			}
			wire.WriteFrame(feed, wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: 1, Channels: 1}))
			waitFor(t, "the ack", func() bool { return r.Status().Relay.Connected })
			if _, hop := dialFeed(t, ln.Addr().String(), feedID); hop != 2 {
				t.Fatalf("after the ack a feed was acknowledged at hop %d, want 2", hop)
			}
		}},
		{"nan_region_refused_session_stays", func(t *testing.T, n protocolNode) {
			x := dialPeer(t, n.addr, 3)
			x.subscribe(query.Range(1, geom.R(100, 100, math.NaN(), 400)))
			if msg := x.awaitError(); !strings.Contains(msg, "NaN") {
				t.Fatalf("the NaN region was refused with %q", msg)
			}
			y := dialPeer(t, n.addr, 4)
			x.subscribe(q(2, 100))
			y.subscribe(q(1, 300))
			waitHolds(t, n.root, 3, 2)
			waitHolds(t, n.root, 4, 1)
			if _, err := n.root.RunCycle(false); err != nil {
				t.Fatal(err)
			}
			x.extract(q(2, 100), n.root)
			y.extract(q(1, 300), n.root)
		}},
	}
	for hop := 0; hop <= 1; hop++ {
		t.Run(fmt.Sprintf("hop=%d", hop), func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					root, addr := startRoot(t, 1)
					n := protocolNode{root: root, addr: addr, hop: hop, superseded: root.Metrics().SessionsSuperseded.Load}
					if hop == 1 {
						r, raddr, _ := startRelay(t, Config{Upstream: addr, RelayID: 1 << 30, Logf: t.Logf})
						n.addr, n.superseded = raddr, r.Metrics().SessionsSuperseded.Load
					}
					c.run(t, n)
				})
			}
		})
	}
}

// TestRelayEnforcesRelayCtlPrivilege: a relay holds its downstream
// sessions to the root's privilege rule. A plain client at the relay that
// wraps a Hello for a client connected straight to the root, or a Bye for
// a sibling at the same relay, is cut off and changes nothing; so is a
// downstream relay's feed that wraps a Bye or Unsubscribe for a client it
// does not carry. Both victims keep their subscriptions and their
// sessions.
func TestRelayEnforcesRelayCtlPrivilege(t *testing.T) {
	root, rootAddr := startRoot(t, 1)
	_, relayAddr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, Logf: t.Logf})
	q := query.Range(1, geom.R(100, 100, 500, 500))
	seven := dialPeer(t, rootAddr, 7)
	seven.subscribe(q)
	eight := dialPeer(t, relayAddr, 8)
	eight.subscribe(q)
	waitHolds(t, root, 7, 1)
	waitHolds(t, root, 8, 1)

	hello := dialPeer(t, relayAddr, 99)
	hello.ctl(7, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 7}))
	hello.ended()
	bye := dialPeer(t, relayAddr, 98)
	bye.ctl(8, wire.TypeBye, nil)
	bye.ended()

	f, _ := dialFeed(t, relayAddr, feedID)
	f.ctl(8, wire.TypeUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{ID: 1}))
	f.ctl(8, wire.TypeBye, nil)
	f.ctl(9, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 9}))
	f.ctl(9, wire.TypeSubscribe, subscribePayload(t, query.Range(2, geom.R(600, 600, 700, 700))))
	waitHolds(t, root, 9, 2)

	checkHolds(t, root, 7, 1)
	checkHolds(t, root, 8, 1)
	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	seven.extract(q, root)
	eight.extract(q, root)
}
