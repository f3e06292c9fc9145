package relay

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/netclient"
	"qsub/internal/netfault"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/wire"
)

// startRoot builds a seeded root daemon and serves it on a loopback
// listener.
func startRoot(t *testing.T, channels int) (*daemon.Daemon, string) {
	t.Helper()
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1200; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
	}
	d, err := daemon.New(rel, channels, server.Config{
		Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 5},
		Seed:  42,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SubscriberBuffer = 4096
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(context.Background(), ln)
	t.Cleanup(func() {
		d.Close()
		ln.Close()
	})
	return d, ln.Addr().String()
}

// startRelay builds a relay feeding from upstream and serves it on a
// loopback listener, waiting until the upstream feed is established.
func startRelay(t *testing.T, cfg Config) (*Relay, string, context.CancelFunc) {
	t.Helper()
	if cfg.MinBackoff == 0 {
		cfg.MinBackoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 100 * time.Millisecond
	}
	if cfg.SubscriberBuffer == 0 {
		cfg.SubscriberBuffer = 4096
	}
	r, err := New(cfg)
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
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-ran
	})
	waitFor(t, "upstream feed", func() bool { return r.Status().Relay.Connected })
	return r, ln.Addr().String(), cancel
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !pred() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func waitForQueries(t *testing.T, d *daemon.Daemon, n int) {
	t.Helper()
	waitFor(t, "subscriptions to register", func() bool {
		cy, err := d.Server().Plan()
		return err == nil && len(cy.Queries) == n
	})
}

// subscriber dials addr, introduces clientID and registers one range
// query, then collects the payload bytes of every TypeAnswer frame in
// arrival order until the connection ends.
type subscriber struct {
	conn    net.Conn
	mu      sync.Mutex
	answers []byte // concatenated answer frames, header included
	frames  int
	errs    int
	lastErr string // payload of the newest Error frame
	done    chan struct{}
}

func newSubscriber(t *testing.T, addr string, clientID int, q query.Query) *subscriber {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return newSubscriberOn(t, conn, clientID, q)
}

// newSubscriberOn is newSubscriber over a connection the caller dialed
// (and may have wrapped for fault injection).
func newSubscriberOn(t *testing.T, conn net.Conn, clientID int, q query.Query) *subscriber {
	t.Helper()
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteFrame(conn, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: clientID})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TypeSubscribe, payload); err != nil {
		t.Fatal(err)
	}
	s := &subscriber{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			ft, payload, err := wire.ReadFrame(conn)
			if err != nil || ft == wire.TypeBye {
				return
			}
			switch ft {
			case wire.TypeAnswer:
				s.mu.Lock()
				var hdr [5]byte
				hdr[0] = byte(len(payload) >> 24)
				hdr[1] = byte(len(payload) >> 16)
				hdr[2] = byte(len(payload) >> 8)
				hdr[3] = byte(len(payload))
				hdr[4] = wire.TypeAnswer
				s.answers = append(s.answers, hdr[:]...)
				s.answers = append(s.answers, payload...)
				s.frames++
				s.mu.Unlock()
			case wire.TypeError:
				s.mu.Lock()
				s.errs++
				s.lastErr = string(payload)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *subscriber) frameCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

func (s *subscriber) stream() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.answers...)
}

// settledStreams returns the answer streams of the direct clients and of
// their relayed twins once ready() holds and every pair agrees, or what
// it last saw after 5 s. Equal frame counts are not enough to compare on:
// they can be a common prefix of two streams still in flight, and one
// side may then run ahead before its stream is taken. A real divergence
// never settles, and the caller's comparison reports it.
func settledStreams(direct, relayed []*subscriber, ready func() bool) (want, got [][]byte) {
	want, got = make([][]byte, len(direct)), make([][]byte, len(direct))
	settled := func() bool {
		if !ready() {
			return false
		}
		for i := range direct {
			want[i], got[i] = direct[i].stream(), relayed[i].stream()
			if !bytes.Equal(want[i], got[i]) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	return want, got
}

// drainRelay waits until the relay has flushed everything it enqueued.
func drainRelay(t *testing.T, r *Relay) {
	t.Helper()
	waitFor(t, "relay writers to drain", func() bool {
		return r.Metrics().FanoutFramesWritten.Load() == r.Metrics().FanoutDeliveries.Load()
	})
}

// TestRelayByteExactFanout is the tentpole exactness pin: a client
// subscribed through a relay receives byte-identical answer frames — the
// same shared encode-once frames, sequence numbers and timestamps
// included — as a directly connected client in the same merged set. The
// direct client is the oracle; any re-encode, reorder, truncation or
// seq rewrite in the relay path breaks the byte comparison.
func TestRelayByteExactFanout(t *testing.T) {
	root, rootAddr := startRoot(t, 3)
	rl, relayAddr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, Logf: t.Logf})

	// Pairs of identical rectangles: one subscribed directly, one through
	// the relay. Identical regions merge into the same set, so both
	// clients of a pair share a channel and must see identical streams.
	const pairs = 3
	direct := make([]*subscriber, pairs)
	relayed := make([]*subscriber, pairs)
	for i := 0; i < pairs; i++ {
		rect := geom.R(float64(i*250), float64(i*150), float64(i*250+300), float64(i*150+300))
		direct[i] = newSubscriber(t, rootAddr, 100+i, query.Range(query.ID(100+i), rect))
		relayed[i] = newSubscriber(t, relayAddr, 200+i, query.Range(query.ID(200+i), rect))
	}
	waitForQueries(t, root, 2*pairs)

	var messages int
	cycle := func(delta bool) {
		rep, err := root.RunCycle(delta)
		if err != nil {
			t.Fatal(err)
		}
		messages += rep.Messages
	}
	cycle(false)
	rng := rand.New(rand.NewSource(7))
	rel := root.Server().Relation()
	for c := 0; c < 3; c++ {
		for i := 0; i < 50; i++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
		}
		all := rel.All()
		for i := 0; i < 10; i++ {
			rel.Delete(all[rng.Intn(len(all))].ID)
		}
		cycle(true)
	}
	// An answer frame larger than the feed's 32 KiB read buffer takes the
	// reader's other branch; its bytes must come through as exactly.
	rel.Insert(geom.Pt(100, 100), bytes.Repeat([]byte("L"), 40<<10))
	cycle(true)

	if got := root.Metrics().RelaySessions.Load(); got != 1 {
		t.Errorf("root reports %d relay sessions, want 1", got)
	}

	// Drain: direct clients catch the daemon's graceful Bye; the relay
	// flushes its queues before its sessions are compared.
	waitFor(t, "direct frames", func() bool {
		for i := range direct {
			if direct[i].frameCount() == 0 {
				return false
			}
		}
		return true
	})
	want, got := settledStreams(direct, relayed, func() bool { return rl.Metrics().RelayFrames.Load() >= uint64(messages) })
	drainRelay(t, rl)

	for i := 0; i < pairs; i++ {
		want, got := want[i], got[i]
		if len(want) == 0 {
			t.Fatalf("direct client %d received no answer frames", 100+i)
		}
		if !bytes.Equal(want, got) {
			j := 0
			for j < len(want) && j < len(got) && want[j] == got[j] {
				j++
			}
			t.Fatalf("pair %d: relayed stream diverges from direct at byte %d (direct %d bytes, relayed %d bytes)",
				i, j, len(want), len(got))
		}
		if relayed[i].errs != 0 {
			t.Errorf("relayed client %d received %d error frames", 200+i, relayed[i].errs)
		}
	}

	// The feed carried each published message exactly once, regardless of
	// how many downstream sessions shared it.
	if got := rl.Metrics().RelayFrames.Load(); got != uint64(messages) {
		t.Errorf("relay ingested %d frames for %d published messages, want one per message", got, messages)
	}
	if st := rl.Status(); st.Relay.Hop != 1 {
		t.Errorf("relay reports hop %d, want 1", st.Relay.Hop)
	}
}

// TestRelayMultiHopExactness chains two relay tiers (root → r1 → r2) and
// pins the same byte-exactness for a client three hops from the
// publisher, plus hop accounting through the chain.
func TestRelayMultiHopExactness(t *testing.T) {
	root, rootAddr := startRoot(t, 2)
	_, r1Addr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, Logf: t.Logf})
	r2, r2Addr, _ := startRelay(t, Config{Upstream: r1Addr, RelayID: 1<<30 + 1, Logf: t.Logf})

	rect := geom.R(100, 100, 500, 500)
	direct := newSubscriber(t, rootAddr, 101, query.Range(101, rect))
	far := newSubscriber(t, r2Addr, 201, query.Range(201, rect))
	waitForQueries(t, root, 2)

	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	rel := root.Server().Relation()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
	}
	if _, err := root.RunCycle(true); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "direct frames", func() bool { return direct.frameCount() > 0 })
	want, got := settledStreams([]*subscriber{direct}, []*subscriber{far}, func() bool { return far.frameCount() > 0 })
	drainRelay(t, r2)

	if !bytes.Equal(want[0], got[0]) {
		t.Fatalf("two-hop stream differs from direct (direct %d bytes, relayed %d bytes)", len(want[0]), len(got[0]))
	}
	if st := r2.Status(); st.Relay.Hop != 2 {
		t.Errorf("second-tier relay reports hop %d, want 2", st.Relay.Hop)
	}
}

// TestRelayedAnswerSurvivesLaterFrames: the receive path's borrow rule
// (netclient.Conn.Next) holds for a client behind a relay. Its answer
// arrives in the first cycle; twenty delta cycles then carry several
// read buffers' worth of another client's tuples past it, and the answer
// it extracted still equals the query run on the relation.
func TestRelayedAnswerSurvivesLaterFrames(t *testing.T) {
	root, rootAddr := startRoot(t, 1)
	_, relayAddr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, Logf: t.Logf})

	rel := root.Server().Relation()
	mine := query.Range(1, geom.R(0, 0, 100, 100))
	for i := 0; i < 10; i++ {
		rel.Insert(geom.Pt(10+float64(i), 20), []byte(fmt.Sprintf("kept tuple %d", i)))
	}
	want := rel.Search(mine.Region)

	nc, err := netclient.New(netclient.Config{Addr: relayAddr, ClientID: 300, Queries: []query.Query{mine}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- nc.Run(ctx) }()
	defer func() {
		cancel()
		<-ran
	}()
	newSubscriber(t, relayAddr, 301, query.Range(2, geom.R(600, 600, 1000, 1000)))
	waitForQueries(t, root, 2)

	messages, delta := 0, false
	for cycle := 0; cycle <= 20; cycle++ {
		rep, err := root.RunCycle(delta)
		if err != nil {
			t.Fatal(err)
		}
		messages += rep.Messages
		delta = true
		for i := 0; i < 20; i++ {
			rel.Insert(geom.Pt(700+float64(i), 700+float64(cycle)), bytes.Repeat([]byte{byte(cycle)}, 400))
		}
	}
	waitFor(t, "every frame to reach the relayed client", func() bool { return nc.Stats().Frames == messages })

	got := nc.Extractor().Answer(mine.ID)
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("relayed answer changed under later frames:\n got %v\nwant %v", got, want)
	}
	st := nc.Extractor().Stats()
	if st.GapsDetected != 0 || st.FilteredBytes < 4*32<<10 {
		t.Fatalf("extractor stats %+v: want no gaps and several read buffers of filtered payload", st)
	}
}

// TestRelayUpstreamReconnectRecovery cuts the relay's upstream feed
// mid-run and verifies the recovery contract: the relay reconnects with
// backoff, replays its clients' registrations (the root released them at
// teardown, so the replay is collision-free), requests a full refresh,
// and the next cycle delivers complete answers downstream again.
func TestRelayUpstreamReconnectRecovery(t *testing.T) {
	root, rootAddr := startRoot(t, 2)

	var fmu sync.Mutex
	var faulty *netfault.Conn
	rl, relayAddr, _ := startRelay(t, Config{
		Upstream: rootAddr,
		RelayID:  1 << 30,
		Logf:     t.Logf,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc := netfault.Wrap(c)
			fmu.Lock()
			faulty = fc
			fmu.Unlock()
			return fc, nil
		},
	})

	sub := newSubscriber(t, relayAddr, 301, query.Range(301, geom.R(0, 0, 600, 600)))
	waitForQueries(t, root, 1)
	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-cut frames", func() bool { return sub.frameCount() > 0 })
	before := sub.frameCount()

	// Sever the feed. The root reaps the dead relay session and releases
	// the relayed client; the relay reconnects and replays it.
	fmu.Lock()
	faulty.Close()
	fmu.Unlock()
	waitFor(t, "upstream reconnect", func() bool {
		st := rl.Status()
		return st.Relay.Connected && st.Relay.Reconnects >= 1
	})
	if got := rl.Metrics().RelayReconnects.Load(); got < 1 {
		t.Fatalf("relay reconnect counter is %d, want >= 1", got)
	}
	// The replayed registration must land before the next cycle plans.
	waitForQueries(t, root, 1)

	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-reconnect frames", func() bool { return sub.frameCount() > before })
	if sub.errs != 0 {
		t.Errorf("client received %d error frames across the reconnect, want 0 (replay must not collide)", sub.errs)
	}
}
