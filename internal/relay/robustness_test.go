package relay

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
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
	"qsub/internal/shard"
	"qsub/internal/wire"
)

// TestRelaySlowConsumerEvicted: a downstream client that stops reading is
// the relay's problem alone and that client's alone. Its queue fills, the
// relay evicts it — counted in SessionsEvicted and FanoutEvictions, told
// why with an Error frame, closed — and every other session's stream
// stays byte-identical to a direct client's (TestRelayByteExactFanout's
// comparison), with the upstream feed never disturbed.
func TestRelaySlowConsumerEvicted(t *testing.T) {
	root, rootAddr := startRoot(t, 2)
	rl, relayAddr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, SubscriberBuffer: 16, Logf: t.Logf})

	const pairs = 3
	direct := make([]*subscriber, pairs)
	relayed := make([]*subscriber, pairs)
	for i := 0; i < pairs; i++ {
		rect := geom.R(float64(i*250), float64(i*150), float64(i*250+300), float64(i*150+300))
		direct[i] = newSubscriber(t, rootAddr, 100+i, query.Range(query.ID(100+i), rect))
		relayed[i] = newSubscriber(t, relayAddr, 200+i, query.Range(query.ID(200+i), rect))
	}
	// The client that will stall subscribes a corner of its own, filled
	// with tuples fat enough that a few cycles overrun the socket buffers
	// between the relay and a reader that reads nothing.
	rel := root.Server().Relation()
	fat := bytes.Repeat([]byte("x"), 8<<10)
	for i := 0; i < 40; i++ {
		rel.Insert(geom.Pt(905+float64(i), 950), fat)
	}
	raw, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	stalledConn := netfault.Wrap(raw)
	stalledConn.StallReads()
	stalled := newSubscriberOn(t, stalledConn, 300, query.Range(300, geom.R(900, 900, 1000, 1000)))
	waitForQueries(t, root, 2*pairs+1)

	messages := 0
	caughtUp := func() bool {
		if rl.Metrics().RelayFrames.Load() < uint64(messages) {
			return false
		}
		for i := range direct {
			if direct[i].frameCount() == 0 || direct[i].frameCount() != relayed[i].frameCount() {
				return false
			}
		}
		return true
	}
	for cycle := 0; rl.Metrics().FanoutEvictions.Load() == 0; cycle++ {
		if cycle == 300 {
			t.Fatal("the stalled client was never evicted")
		}
		rep, err := root.RunCycle(false)
		if err != nil {
			t.Fatal(err)
		}
		messages += rep.Messages
		// Lockstep, so the reading sessions' queues never come near full
		// and the only eviction is the one under test.
		waitFor(t, "the reading sessions to catch up", caughtUp)
	}

	// The evicted client, reading again, finds its stream ending in the
	// eviction notice and nothing after it.
	stalledConn.ResumeReads()
	select {
	case <-stalled.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the evicted client's connection was never closed")
	}
	if !strings.Contains(stalled.lastErr, "evicted") {
		t.Errorf("evicted client's last Error frame says %q, want the eviction notice", stalled.lastErr)
	}
	waitFor(t, "the eviction to be counted", func() bool { return rl.Metrics().SessionsEvicted.Load() == 1 })
	if got := rl.Metrics().FanoutEvictions.Load(); got != 1 {
		t.Errorf("relay counts %d queue evictions, want 1", got)
	}
	if got := rl.Metrics().RelayReconnects.Load(); got != 0 {
		t.Errorf("relay reconnected upstream %d times over a downstream eviction", got)
	}
	// The root drops the evicted client's subscription with its session.
	waitForQueries(t, root, 2*pairs)

	want, got := settledStreams(direct, relayed, caughtUp)
	for i := 0; i < pairs; i++ {
		if len(want[i]) == 0 || !bytes.Equal(want[i], got[i]) {
			t.Fatalf("pair %d: relayed stream (%d bytes) differs from direct (%d bytes) after a neighbour's eviction",
				i, len(got[i]), len(want[i]))
		}
		if relayed[i].errs != 0 {
			t.Errorf("relayed client %d received %d error frames", 200+i, relayed[i].errs)
		}
	}
	drainRelay(t, rl)
}

// TestRelayMoveUnderBacklog: clients behind one and two relay hops are
// moved between channels by a replan while the first relay's feed is
// backlogged at the root — more queued than the sockets hold, the
// relay reading nothing. The wrapped Assigned travels in the feed's queue
// behind the last frames of the old plan, so when the relay reads again
// it rebinds each client exactly between its old channel's frames and its
// new one's: every client extracts exactly its queries' answers, sees no
// sequence gap and asks for no refresh, and at quiescence every tier has
// written exactly the answer frames it was handed (control frames are not
// qsub_fanout_* frames).
func TestRelayMoveUnderBacklog(t *testing.T) {
	for hops := 1; hops <= 2; hops++ {
		t.Run(fmt.Sprintf("hops=%d", hops), func(t *testing.T) {
			rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 16, 16)
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 4000; i++ {
				rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
			}
			root, err := daemon.New(rel, 4, server.Config{
				Model:    cost.Model{KM: 500, KT: 1, KU: 1, K6: 2},
				Sharding: shard.Config{ShardBits: 4, Aggregate: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			root.SubscriberBuffer = 4096
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go root.Serve(context.Background(), ln)
			t.Cleanup(func() {
				root.Close()
				ln.Close()
			})

			// The chain: root ← r1 (its feed is the one that backs up) [← r2].
			var fmu sync.Mutex
			var feed *netfault.Conn
			r1, addr, _ := startRelay(t, Config{Upstream: ln.Addr().String(), RelayID: 1 << 30, Logf: t.Logf,
				Dial: func(addr string) (net.Conn, error) {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					fmu.Lock()
					defer fmu.Unlock()
					feed = netfault.Wrap(c)
					return feed, nil
				}})
			relays := []*Relay{r1}
			if hops == 2 {
				r2, r2Addr, _ := startRelay(t, Config{Upstream: addr, RelayID: 1<<30 + 1, Logf: t.Logf})
				relays, addr = append(relays, r2), r2Addr
			}

			// Twelve clients of four queries each, spread over the database.
			const n = 12
			spot := func(i int) (float64, float64) { return float64(40 + i*900/n), float64(40 + (i*370)%900) }
			clients := make([]*netclient.Client, n)
			channels := make([][]int, n) // every Assigned channel, in order
			var cmu sync.Mutex
			ctx, cancel := context.WithCancel(context.Background())
			var running sync.WaitGroup
			t.Cleanup(func() {
				cancel()
				running.Wait()
			})
			for i := range clients {
				x, y := spot(i)
				var qs []query.Query
				for k := 0; k < 4; k++ {
					qs = append(qs, query.Range(query.ID(k+1), geom.RectWH(x+float64(k*12), y+float64(k*9), 50, 50)))
				}
				nc, err := netclient.New(netclient.Config{Addr: addr, ClientID: i + 1, Queries: qs,
					OnEvent: func(ev netclient.Event) {
						if ev.Assigned != nil {
							cmu.Lock()
							channels[i] = append(channels[i], ev.Assigned.Channel)
							cmu.Unlock()
						}
					}})
				if err != nil {
					t.Fatal(err)
				}
				clients[i] = nc
				running.Add(1)
				go func() {
					defer running.Done()
					nc.Run(ctx)
				}()
			}
			waitFor(t, "subscriptions", func() bool { return root.Server().SubscriptionCount() == 4*n })

			complete := func() bool {
				for _, nc := range clients {
					for _, q := range nc.Extractor().Queries() {
						want := rel.Search(q.Region)
						sort.Slice(want, func(a, b int) bool { return want[a].ID < want[b].ID })
						if got := nc.Extractor().Answer(q.ID); !reflect.DeepEqual(got, want) {
							return false
						}
					}
				}
				return true
			}
			if _, err := root.RunCycle(false); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the first cycle's answers", complete)

			// The feed stops being read. One delta cycle of fat tuples in
			// every client's region overruns the sockets, so the tail of
			// the old plan's frames waits in the root's queue for r1.
			fmu.Lock()
			feed.StallReads()
			fmu.Unlock()
			fat := bytes.Repeat([]byte("f"), 8<<10)
			for i := 0; i < n; i++ {
				x, y := spot(i)
				for k := 0; k < 10; k++ {
					rel.Insert(geom.Pt(x+20+float64(k), y+20), fat)
				}
			}
			if _, err := root.RunCycle(true); err != nil {
				t.Fatal(err)
			}
			// More than a quarter of the subscriptions change — eight
			// direct clients pile onto one spot — so the replan is a full
			// one and moves clients; the cycle that carries the moves
			// also carries new tuples for everyone.
			for c := 0; c < 8; c++ {
				conn, err := netclient.Dial(ln.Addr().String(), 100+c)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				for k := 1; k <= 4; k++ {
					if err := conn.Subscribe(query.Range(query.ID(k), geom.RectWH(700+float64(k*10), 100+float64(c*8), 200, 200))); err != nil {
						t.Fatal(err)
					}
				}
				go func() {
					for {
						if _, err := conn.Next(); err != nil {
							return
						}
					}
				}()
			}
			waitFor(t, "the churn", func() bool { return root.Server().SubscriptionCount() == 4*n+32 })
			for i := 0; i < n; i++ {
				x, y := spot(i)
				rel.Insert(geom.Pt(x+25, y+25), []byte("after the move"))
			}
			if _, err := root.RunCycle(true); err != nil {
				t.Fatal(err)
			}
			backlog := 0
			for _, lag := range root.Status().Laggards {
				if lag.ClientID == 1<<30 {
					backlog = lag.QueueDepth
				}
			}
			if backlog == 0 {
				t.Fatal("the stalled feed's queue at the root is empty: the backlog fits the sockets")
			}

			fmu.Lock()
			feed.ResumeReads()
			fmu.Unlock()
			waitFor(t, "complete answers after the moves", complete)

			moved := 0
			cmu.Lock()
			for _, seen := range channels {
				if len(seen) != 2 {
					t.Fatalf("a client was sent %d Assigned frames over 2 replans", len(seen))
				}
				if seen[0] != seen[1] {
					moved++
				}
			}
			cmu.Unlock()
			if moved == 0 {
				t.Fatal("the replan moved no relayed client; the test needs a population it does move")
			}
			t.Logf("%d of %d relayed clients changed channel under the backlog", moved, n)
			for i, nc := range clients {
				if st := nc.Stats(); st.GapRefreshes != 0 || st.Connects != 1 {
					t.Errorf("client %d: %+v, want one session and no gap refresh", i+1, st)
				}
				if st := nc.Extractor().Stats(); st.GapsDetected != 0 {
					t.Errorf("client %d: extractor saw %d gaps", i+1, st.GapsDetected)
				}
			}
			quiescent := func(what string, m interface {
				Load() uint64
			}, want interface{ Load() uint64 }) {
				t.Helper()
				waitFor(t, what+" writers to have counted every delivery", func() bool { return m.Load() == want.Load() })
			}
			quiescent("root", root.Metrics().FanoutFramesWritten, root.Metrics().FanoutDeliveries)
			for i, r := range relays {
				quiescent(fmt.Sprintf("relay %d", i+1), r.Metrics().FanoutFramesWritten, r.Metrics().FanoutDeliveries)
			}
		})
	}
}

// fakeUpstream is a scripted root for the relay: it accepts one feed
// session at a time and lets the test write whatever frames it wants, in
// whatever order, to it.
type fakeUpstream struct {
	t     *testing.T
	ln    net.Listener
	feeds chan net.Conn
}

func startFakeUpstream(t *testing.T) *fakeUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	u := &fakeUpstream{t: t, ln: ln, feeds: make(chan net.Conn, 4)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			u.feeds <- conn
		}
	}()
	return u
}

// accept waits for the relay's next feed session and consumes its Hello
// and RelaySub.
func (u *fakeUpstream) accept() net.Conn {
	u.t.Helper()
	select {
	case conn := <-u.feeds:
		for _, want := range []uint8{wire.TypeHello, wire.TypeRelaySub} {
			if ft, _, err := wire.ReadFrame(conn); err != nil || ft != want {
				u.t.Fatalf("feed handshake: frame type %d (%v), want %d", ft, err, want)
			}
		}
		return conn
	case <-time.After(5 * time.Second):
		u.t.Fatal("the relay never connected upstream")
		return nil
	}
}

// answerPayload is a minimal TypeAnswer payload on the channel: the relay
// routes on the leading channel field and never decodes the rest.
func answerPayload(channel int, body string) []byte {
	return append([]byte{byte(channel >> 24), byte(channel >> 16), byte(channel >> 8), byte(channel)}, body...)
}

// TestRelayFabricLifecycle pins what the relay does around its RelayAcks,
// against a scripted upstream: answer frames that arrive before the first
// ack are counted and dropped (there is no fabric yet and nobody bound); a
// frame for a channel the upstream never acknowledged is dropped; a client
// bound by a wrapped Assigned receives its channel's frames verbatim; and
// a reconnect whose ack names a different channel count closes the
// downstream sessions and rebuilds the fabric at the new size.
func TestRelayFabricLifecycle(t *testing.T) {
	up := startFakeUpstream(t)
	r, err := New(Config{Upstream: up.ln.Addr().String(), RelayID: 1 << 30, Logf: t.Logf,
		MinBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, JitterSeed: 1})
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
		<-ran
	})

	feed := up.accept()
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(0, "before the ack"))
	wire.WriteFrame(feed, wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: 1, Channels: 2}))
	waitFor(t, "the feed to be acknowledged", func() bool { return r.Status().Relay.Connected })
	if st := r.Status(); st.Channels != 2 || r.Metrics().RelayFrames.Load() != 1 || r.Metrics().FanoutDeliveries.Load() != 0 {
		t.Fatalf("after a pre-ack frame and an ack for 2 channels: %d channels, %d ingested, %d delivered",
			st.Channels, r.Metrics().RelayFrames.Load(), r.Metrics().FanoutDeliveries.Load())
	}

	client := newSubscriber(t, ln.Addr().String(), 42, query.Range(1, geom.R(0, 0, 10, 10)))
	for _, want := range []uint8{wire.TypeHello, wire.TypeSubscribe} {
		ft, payload, err := wire.ReadFrame(feed)
		if err != nil || ft != wire.TypeRelayCtl {
			t.Fatalf("upstream read frame type %d (%v), want RelayCtl", ft, err)
		}
		if rc, err := wire.UnmarshalRelayCtl(payload); err != nil || rc.ClientID != 42 || rc.Inner != want {
			t.Fatalf("upstream read %+v (%v), want inner type %d for client 42", rc, err, want)
		}
	}
	assigned := func(ch int) []byte {
		return wire.MarshalRelayCtl(wire.RelayCtl{ClientID: 42, Inner: wire.TypeAssigned,
			Payload: wire.MarshalAssigned(wire.Assigned{Channel: ch})})
	}
	wire.WriteFrame(feed, wire.TypeRelayCtl, assigned(7)) // no such channel: dropped, the client stays unbound
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(1, "nobody is bound yet"))
	wire.WriteFrame(feed, wire.TypeRelayCtl, assigned(1))
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(7, "no such channel"))
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(0, "another channel"))
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(1, "for client 42"))
	waitFor(t, "the bound client's frame", func() bool { return client.frameCount() == 1 })
	if want := wire.AppendFrame(nil, wire.TypeAnswer, answerPayload(1, "for client 42")); !bytes.Equal(client.stream(), want) {
		t.Fatalf("client received %q, want the one frame of its channel verbatim", client.stream())
	}
	if got := r.Metrics().RelayFrames.Load(); got != 5 {
		t.Fatalf("relay ingested %d frames, want 5", got)
	}

	// The upstream comes back with three channels.
	feed.Close()
	feed = up.accept()
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(2, "before the new ack: no channel 2 yet"))
	wire.WriteFrame(feed, wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: 1, Channels: 3}))
	select {
	case <-client.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the downstream session survived a fabric of another size")
	}
	waitFor(t, "the rebuilt fabric", func() bool { st := r.Status(); return st.Relay.Connected && st.Channels == 3 })
	waitFor(t, "the old sessions to be gone", func() bool { return r.Status().Sessions == 0 })

	// A client that redials is served by the new fabric, channel 2 included.
	again := newSubscriber(t, ln.Addr().String(), 42, query.Range(1, geom.R(0, 0, 10, 10)))
	waitFor(t, "the redialed client's route", func() bool { return r.Status().Relay.Clients == 1 && r.Status().Sessions == 1 })
	wire.WriteFrame(feed, wire.TypeRelayCtl, assigned(2))
	wire.WriteFrame(feed, wire.TypeAnswer, answerPayload(2, "on the third channel"))
	waitFor(t, "a frame on the new channel", func() bool { return again.frameCount() == 1 })
}

// TestRelayAdminSurface: a relay serves the same admin handler as the
// root — /buildinfo and pprof included — and its /statusz carries the
// laggard list and the qsub_session_max_* gauges of the shared lag sweep,
// which move when a downstream session falls behind.
func TestRelayAdminSurface(t *testing.T) {
	root, rootAddr := startRoot(t, 1)
	rl, relayAddr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, Logf: t.Logf})
	admin := httptest.NewServer(rl.AdminMux())
	defer admin.Close()
	for _, path := range []string{"/healthz", "/metrics", "/statusz", "/buildinfo", "/debug/pprof/cmdline"} {
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("relay admin %s: status %d", path, resp.StatusCode)
		}
	}

	raw, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	slow := netfault.Wrap(raw)
	newSubscriberOn(t, slow, 77, query.Range(1, geom.R(0, 0, 1000, 1000)))
	waitForQueries(t, root, 1)
	if st := rl.Status(); len(st.Laggards) != 1 || st.Laggards[0].ClientID != 77 || st.Laggards[0].Channel != -1 {
		t.Fatalf("before any cycle the relay's laggards are %+v, want client 77 unbound", st.Laggards)
	}

	// The client stops reading. Its answer is too fat for the sockets:
	// the writer parks in the first cycle's frame, the next cycles' wait
	// in the queue behind it. The writer swaps out everything queued when
	// it wakes, so the later cycles run only once it holds the first
	// frame; otherwise a slow wake-up takes all three in one batch and
	// leaves the queue empty.
	slow.StallReads()
	rel := root.Server().Relation()
	fat := bytes.Repeat([]byte("x"), 16<<10)
	for i := 0; i < 64; i++ {
		rel.Insert(geom.Pt(float64(i), 500), fat)
	}
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := root.RunCycle(false); err != nil {
			t.Fatal(err)
		}
		if cycle == 0 {
			waitFor(t, "the writer to take the first frame", func() bool {
				return rl.Status().Metrics.Counters["qsub_fanout_bytes_total"] > 0
			})
		}
	}
	waitFor(t, "the lag to show in /statusz", func() bool {
		st := rl.Status()
		g := st.Metrics.Gauges
		return len(st.Laggards) == 1 && st.Laggards[0].Channel == 0 && st.Laggards[0].SeqLag > 0 && st.Laggards[0].QueueDepth > 0 &&
			g["qsub_session_max_seq_lag"] > 0 && g["qsub_session_max_queue_depth"] > 0
	})
	slow.ResumeReads()
	waitFor(t, "the lag to clear", func() bool {
		st := rl.Status()
		return st.Laggards[0].SeqLag == 0 && st.Metrics.Gauges["qsub_session_max_seq_lag"] == 0 &&
			st.Metrics.Gauges["qsub_session_max_queue_depth"] == 0
	})

	// The relay stanza counts the upstream channels the relay's list
	// selects: a duplicate once, a channel past the upstream's count not
	// at all.
	_, root8 := startRoot(t, 8)
	masked, _, _ := startRelay(t, Config{Upstream: root8, RelayID: 1 << 30, Channels: []int{0, 0, 2, 99}, Logf: t.Logf})
	if st := masked.Status(); st.Channels != 8 || st.Relay.Channels != 2 {
		t.Errorf("relay over channels {0, 0, 2, 99} of 8 reports %d of %d channels, want 2 of 8", st.Relay.Channels, st.Channels)
	}
}

// TestRelayRefusesChannelsOutOfRange: New refuses a channel list the
// upstream subscription cannot carry — a negative channel, which the
// mask would skip and so subscribe every channel, or one whose RelaySub
// frame would pass wire.MaxFrameSize — instead of dialing with it.
func TestRelayRefusesChannelsOutOfRange(t *testing.T) {
	// The first channel whose mask needs more words than a frame holds.
	tooHigh := (wire.MaxFrameSize - 4) / 8 * 64
	for _, channels := range [][]int{{-1}, {0, -3}, {tooHigh}, {1, 4000000000}} {
		if _, err := New(Config{Upstream: "127.0.0.1:1", Channels: channels}); err == nil {
			t.Errorf("New accepted channels %v", channels)
		}
	}
}
