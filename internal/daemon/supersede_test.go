package daemon

import (
	"net"
	"sort"
	"testing"
	"time"

	"qsub/internal/fanout"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// registered returns the query ids the server holds for the client,
// sorted.
func registered(t *testing.T, d *Daemon, clientID int) []query.ID {
	t.Helper()
	cy, err := d.Server().Plan()
	if err != nil {
		return nil // an empty registry does not plan
	}
	var ids []query.ID
	for i, q := range cy.Queries {
		if cy.Owners[i] == clientID {
			ids = append(ids, q.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func waitRegistered(t *testing.T, d *Daemon, clientID int, want ...query.ID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := registered(t, d, clientID)
		if len(got) == len(want) {
			same := true
			for i := range got {
				same = same && got[i] == want[i]
			}
			if same {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("client %d holds queries %v, want %v", clientID, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// session returns the live session that introduced itself as clientID.
func session(d *Daemon, clientID int) *fanout.Session {
	for _, s := range d.hub.Sessions() {
		if s.ClientID == clientID {
			return s
		}
	}
	return nil
}

func subscribePayload(t *testing.T, q query.Query) []byte {
	t.Helper()
	payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestRedialBeforeReapDirect: a client id redials while its old session is
// still open (half-open, never reaped). The registry's owner check is the
// supersede rule: the successor starts from a clean slate, and nothing
// the predecessor still does — a late Subscribe, a late Unsubscribe of
// the successor's query, its teardown — touches the successor's
// registrations.
func TestRedialBeforeReapDirect(t *testing.T) {
	d, addr := startDaemon(t, 1)
	a, err := Dial(addr, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Subscribe(query.Range(1, geom.R(0, 0, 10, 10))); err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, d, 5, 1)
	old := session(d, 5)

	b, err := Dial(addr, 5) // a never said Bye and was never reaped
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Subscribe(query.Range(2, geom.R(20, 20, 40, 40))); err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, d, 5, 2)
	if now := session(d, 5); now == nil || now == old {
		t.Fatal("the redial did not take the client id over")
	}

	// The frames the old session's read loop may still have been
	// processing when it was superseded, and its Bye, replayed here in
	// the one order that used to do damage: after the successor
	// registered.
	if err := d.hub.Control(old, 5, wire.TypeSubscribe, subscribePayload(t, query.Range(3, geom.R(50, 50, 60, 60)))); err == nil {
		t.Error("a late Subscribe from the superseded session was accepted")
	}
	if err := d.hub.Control(old, 5, wire.TypeUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{ID: 2})); err == nil {
		t.Error("a late Unsubscribe from the superseded session was accepted")
	}
	d.hub.Control(old, 5, wire.TypeBye, nil)
	waitRegistered(t, d, 5, 2)
	if got := d.Metrics().SessionsSuperseded.Load(); got != 1 {
		t.Errorf("SessionsSuperseded = %d, want 1", got)
	}

	// The successor is a working session.
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	drainUntil(t, b, 5*time.Second, func(ev Event) bool { return ev.Answer != nil })
}

// relayLink is a raw relay feed session for the registry tests: Hello,
// RelaySub, then wrapped control frames written by hand.
type relayLink struct {
	t    *testing.T
	conn net.Conn
	id   int
}

func dialRelayLink(t *testing.T, d *Daemon, addr string, id int) *relayLink {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	l := &relayLink{t: t, conn: conn, id: id}
	l.write(wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id}))
	l.write(wire.TypeRelaySub, wire.MarshalRelaySub(wire.RelaySub{}))
	if ft, _ := l.read(); ft != wire.TypeRelayAck {
		t.Fatalf("relay %d: first frame has type %d, want RelayAck", id, ft)
	}
	return l
}

func (l *relayLink) write(ft uint8, payload []byte) {
	l.t.Helper()
	if err := wire.WriteFrame(l.conn, ft, payload); err != nil {
		l.t.Fatal(err)
	}
}

func (l *relayLink) ctl(clientID int, inner uint8, payload []byte) {
	l.t.Helper()
	l.write(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{ClientID: clientID, Inner: inner, Payload: payload}))
}

func (l *relayLink) read() (uint8, []byte) {
	l.t.Helper()
	l.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := wire.ReadFrame(l.conn)
	if err != nil {
		l.t.Fatalf("relay %d: %v", l.id, err)
	}
	return ft, payload
}

// TestRedialBeforeReapThroughRelays: a client re-homes from one relay to
// another before the first has noticed it left. The second relay's Hello
// takes the id over with a clean slate; the first relay's late frames for
// the id — and the Bye it sends when it finally reaps the client — are
// ignored; assignments go to the new relay only, wrapped and in-band; and
// the first relay going away releases nothing of the client's.
func TestRedialBeforeReapThroughRelays(t *testing.T) {
	d, addr := startDaemon(t, 2)
	r1 := dialRelayLink(t, d, addr, 1<<30)
	r2 := dialRelayLink(t, d, addr, 1<<30+1)

	r1.ctl(7, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 7}))
	r1.ctl(7, wire.TypeSubscribe, subscribePayload(t, query.Range(1, geom.R(0, 0, 100, 100))))
	waitRegistered(t, d, 7, 1)

	r2.ctl(7, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 7}))
	r2.ctl(7, wire.TypeSubscribe, subscribePayload(t, query.Range(2, geom.R(200, 200, 300, 300))))
	waitRegistered(t, d, 7, 2)

	// r1 catches up: late frames for the client it no longer owns, then
	// the Bye of its own reaping. A Ready for a client r1 does own marks
	// the point where the daemon has processed them all.
	r1.ctl(7, wire.TypeSubscribe, subscribePayload(t, query.Range(3, geom.R(400, 400, 500, 500))))
	r1.ctl(7, wire.TypeUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{ID: 2}))
	r1.ctl(7, wire.TypeBye, nil)
	r1.ctl(8, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: 8}))
	r1.ctl(8, wire.TypeSubscribe, subscribePayload(t, query.Range(1, geom.R(600, 600, 700, 700))))
	waitRegistered(t, d, 8, 1)
	waitRegistered(t, d, 7, 2)

	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	// Each feed gets its own client's wrapped Assigned ahead of the
	// cycle's answer frames, and never the other's.
	for _, want := range []struct {
		link   *relayLink
		client int
	}{{r1, 8}, {r2, 7}} {
		ft, payload := want.link.read()
		if ft != wire.TypeRelayCtl {
			t.Fatalf("relay %d: frame type %d ahead of the cycle's answers, want the wrapped Assigned", want.link.id, ft)
		}
		rc, err := wire.UnmarshalRelayCtl(payload)
		if err != nil || rc.ClientID != want.client || rc.Inner != wire.TypeAssigned {
			t.Fatalf("relay %d: wrapped frame %+v (%v), want Assigned for client %d", want.link.id, rc, err, want.client)
		}
		if ft, _ := want.link.read(); ft != wire.TypeAnswer {
			t.Fatalf("relay %d: frame type %d after the only Assigned it is owed, want Answer", want.link.id, ft)
		}
	}

	// r1 disconnects: its own client goes, the re-homed one stays.
	r1.conn.Close()
	waitRegistered(t, d, 8)
	waitRegistered(t, d, 7, 2)
	r2.conn.Close()
	waitRegistered(t, d, 7)
}
